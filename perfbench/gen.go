package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// Every input the program sees is drawn here from the run's seed; the
// program receives only the generated requests. Each consumer gets its own
// stream so adding a draw to one workload cannot shift another's inputs.

const (
	streamServe = iota + 1
	streamServeNu
	streamSolve
	streamSession
)

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// maxNu is the largest stable Courant number for the default velocity.
func maxNu() float64 {
	p, err := core.DefaultProblem(16, 1).Normalize()
	if err != nil {
		panic(err) // the default problem is a constant; it always normalizes
	}
	return p.Nu
}

// nuSource draws Courant numbers in [ν_max/2, ν_max] that never repeat, so
// a simulate job or session carrying one is never a cache or store hit.
type nuSource struct {
	rng  *rand.Rand
	max  float64
	seen map[float64]bool
}

func newNuSource(rng *rand.Rand) *nuSource {
	return &nuSource{rng: rng, max: maxNu(), seen: map[float64]bool{}}
}

func (s *nuSource) next() float64 {
	for {
		nu := s.max * (0.5 + 0.5*s.rng.Float64())
		if nu > 0 && !s.seen[nu] {
			s.seen[nu] = true
			return nu
		}
	}
}

// Predict configurations are drawn from CPU kinds on the two CPU machines,
// where the model answers every core count below.
var (
	predictMachines = []string{"JaguarPF", "Hopper II"}
	predictKinds    = []string{"single", "bulk", "nonblocking", "threaded"}
	predictCores    = []int{12, 24, 48, 96, 192, 384, 768, 1536}
)

// Hot predicts use grid sizes below freshBaseN and fresh ones sizes from
// it upward, one size per fresh request, so fresh keys can collide neither
// with the hot set nor with each other.
const (
	hotMinN    = 64
	freshBaseN = 1000
)

func predictReq(rng *rand.Rand, n int) service.Request {
	return service.Request{Type: service.TypePredict, Predict: &service.PredictRequest{
		Machine: predictMachines[rng.Intn(len(predictMachines))],
		Kind:    predictKinds[rng.Intn(len(predictKinds))],
		Cores:   predictCores[rng.Intn(len(predictCores))],
		N:       n,
	}}
}

// Serve traffic classes.
type class int

const (
	classHot   class = iota // repeat of a warmed predict: a cache hit
	classFresh              // predict never sent before: executes
	classSim                // tiny simulate never sent before: executes
)

func (c class) String() string {
	return [...]string{"hot", "fresh", "sim"}[c]
}

// The serve mix: shares of hot repeats and fresh predicts; the rest are
// tiny simulates. The shares are the ones the workload is defined by.
// hotSetSize is otherwise arbitrary, but small enough that hot keys stay
// cached: each node's LRU cache holds 256 results, and between two
// repeats of one hot key its node takes in about
// hotSetSize × (1 − shareHot) / shareHot / 2 = 16 fresh results, so a hot
// repeat is a hit for reasons of the mix, not of luck.
const (
	shareHot   = 0.60
	shareFresh = 0.35
	hotSetSize = 48
)

// tinySim is the shape of serve's simulate class: small enough that the
// kernel is a rounding error next to HTTP, queueing and caching. Sixteen
// planes split over two tasks, four steps: about 0.9 Mflop, well under a
// millisecond of the 3–5 ms such a job takes end to end. The exact shape
// is otherwise arbitrary.
const (
	tinyN     = 16
	tinySteps = 4
)

// item is one generated request.
type item struct {
	class class
	req   service.Request
	key   string        // the request's cache key
	due   time.Duration // offset from the phase start (open loop only)
}

// serveGen generates serve traffic. next is safe for concurrent use; the
// sequence it returns depends only on the seed.
type serveGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	nus   *nuSource
	hot   []item
	fresh int
}

func newServeGen(seed int64) *serveGen {
	rng := newRand(seed, streamServe)
	g := &serveGen{rng: rng, nus: newNuSource(newRand(seed, streamServeNu))}
	seen := map[string]bool{}
	for len(g.hot) < hotSetSize {
		req := predictReq(rng, hotMinN+rng.Intn(freshBaseN-hotMinN))
		key := req.CacheKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		g.hot = append(g.hot, item{class: classHot, req: req, key: key})
	}
	return g
}

func (g *serveGen) next() item {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nextLocked()
}

func (g *serveGen) nextLocked() item {
	u := g.rng.Float64()
	switch {
	case u < shareHot:
		return g.hot[g.rng.Intn(len(g.hot))]
	case u < shareHot+shareFresh:
		req := predictReq(g.rng, freshBaseN+g.fresh)
		g.fresh++
		return item{class: classFresh, req: req, key: req.CacheKey()}
	default:
		kind := "bulk"
		if g.rng.Intn(2) == 1 {
			kind = "nonblocking"
		}
		req := service.Request{Type: service.TypeSimulate, Simulate: &service.SimulateRequest{
			Kind: kind, N: tinyN, Steps: tinySteps, Nu: g.nus.next(), Tasks: 2, Verify: true,
		}}
		return item{class: classSim, req: req, key: req.CacheKey()}
	}
}

// schedule draws an open-loop arrival schedule: Poisson arrivals at rate
// per second over span.
func (g *serveGen) schedule(rate float64, span time.Duration) []item {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []item
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		it := g.nextLocked()
		it.due = due
		out = append(out, it)
	}
}
