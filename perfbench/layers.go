package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	advect "repro"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/stencil"
	"repro/internal/vtime"
)

// The traced run's layer probes: the benchmark calls each layer's public
// functions directly, times every call (or fixed batch of calls, for
// calls shorter than a clock read), and records one span per timed call
// under a probe root. No probe reads a program-side span except the
// overlap report a runner records into Options.Rec.

// probes runs one probe per layer. Each probe adds its metrics to m and
// its correctness failures to res.
type probes struct {
	tr  *tracer
	m   map[string]float64
	res *result
	dir string // scratch directory inside the checkout
	cl  *client
}

// timed runs fn reps times, recording one span per call, and returns the
// per-call durations.
func (p *probes) timed(root active, layer, name string, reps int, fn func()) []time.Duration {
	out := make([]time.Duration, reps)
	for i := range out {
		sp := p.tr.begin(layer, name, root)
		t0 := time.Now()
		fn()
		out[i] = time.Since(t0)
		sp.end()
	}
	return out
}

// batched times reps batches of inner calls and returns the median time
// per call in seconds.
func (p *probes) batched(root active, layer, name string, reps, inner int, fn func()) float64 {
	ds := p.timed(root, layer, name, reps, func() {
		for i := 0; i < inner; i++ {
			fn()
		}
	})
	return medianDur(ds).Seconds() / float64(inner)
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (p *probes) run(ctx context.Context) {
	for _, pr := range []struct {
		layer string
		fn    func(active) error
	}{
		{"stencil", p.stencil},
		{"grid", p.grid},
		{"mpi", p.mpi},
		{"par", p.par},
		{"gpusim", p.gpusim},
		{"impl", p.impl},
		{"perf", p.perf},
		{"service", func(root active) error { return p.service(ctx, root) }},
		{"cluster", func(root active) error { return p.cluster(ctx, root) }},
		{"session", p.session},
	} {
		root := p.tr.begin("probe", pr.layer, active{})
		if err := pr.fn(root); err != nil {
			p.res.problem(fmt.Errorf("%s probe: %w", pr.layer, err))
		}
		root.end()
	}
}

var defaultVelocity = grid.Velocity{X: 1, Y: 0.5, Z: 0.25}

func gaussianField(n int) *grid.Field {
	f := grid.NewField(grid.Uniform(n), 1)
	grid.FillGaussian(f, grid.DefaultGaussian(f.N))
	return f
}

// stencil: Op.Apply over the whole grid, in paper-equivalent GF.
func (p *probes) stencil(root active) error {
	op := stencil.TableI(defaultVelocity, maxNu())
	for _, n := range []int{64, 128} {
		src := gaussianField(n)
		src.CopyPeriodicHalos()
		dst := grid.NewField(src.N, 1)
		k := stencil.NewOp(op, src)
		ds := p.timed(root, "stencil", fmt.Sprintf("apply.%d", n), 7, func() {
			k.Apply(src, dst, stencil.Whole(src.N))
		})
		p.m[fmt.Sprintf("stencil.apply.gf.%d", n)] = stencil.FlopsPerPoint * float64(n*n*n) / medianDur(ds).Seconds() / 1e9
		// Periodic Lax–Wendroff conserves mass: one step keeps the sum.
		if a, b := src.InteriorSum(), dst.InteriorSum(); math.Abs(a-b) > massBound(n, 1)*math.Max(1, math.Abs(a)) {
			return fmt.Errorf("apply at %d³ changed mass %v → %v", n, a, b)
		}
	}
	return nil
}

// grid: face packing, field set-up and verification at 96³.
func (p *probes) grid(root active) error {
	const n = 96
	f := gaussianField(n)
	buf := make([]float64, (n+2)*(n+2))
	var bytes int
	for dim := 0; dim < 3; dim++ {
		bytes += 2 * 2 * f.FaceCount(dim) * 8 // two sides, pack and unpack
	}
	ds := p.timed(root, "grid", "pack+unpack", 20, func() {
		for dim := 0; dim < 3; dim++ {
			for _, dir := range []int{-1, 1} {
				k := f.PackFace(dim, dir, 1, buf)
				f.UnpackFace(dim, dir, 1, buf[:k])
			}
		}
	})
	p.m["grid.pack.gbps"] = float64(bytes) / medianDur(ds).Seconds() / 1e9

	var g *grid.Field
	ds = p.timed(root, "grid", "init", 7, func() { g = gaussianField(n) })
	p.m["grid.init_ms.96"] = ms(medianDur(ds))

	wave := grid.DefaultGaussian(g.N)
	var norms grid.Norms
	ds = p.timed(root, "grid", "verify", 7, func() {
		norms = grid.NormsAgainst(g, func(i, j, k int) float64 {
			return wave.Analytic(g.N, defaultVelocity, 0, i, j, k)
		})
	})
	p.m["grid.verify_ms.96"] = ms(medianDur(ds))
	if norms.LInf > 1e-12 {
		return fmt.Errorf("initial field differs from the analytic solution at t=0 by %g", norms.LInf)
	}
	return nil
}

// mpi: a one-value ping-pong and a 96² face exchanged both ways.
func (p *probes) mpi(root active) error {
	const reps, n = 2000, 96
	var rtt, face []time.Duration
	var bad error
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		other := 1 - c.Rank()
		one := make([]float64, 1)
		for i := 0; i < reps; i++ {
			if c.Rank() == 0 {
				sp := p.tr.begin("mpi", "pingpong", root)
				t0 := time.Now()
				c.Send(other, 0, one)
				c.Recv(other, 0, one)
				rtt = append(rtt, time.Since(t0))
				sp.end()
			} else {
				c.Recv(other, 0, one)
				c.Send(other, 0, one)
			}
		}
		send := make([]float64, n*n)
		recv := make([]float64, n*n)
		for i := range send {
			send[i] = float64(c.Rank()*n*n + i)
		}
		for i := 0; i < reps/10; i++ {
			c.Barrier()
			sp := p.tr.begin("mpi", "face-exchange", root)
			t0 := time.Now()
			mpi.Waitall([]*mpi.Request{c.IRecv(other, 1, recv), c.ISend(other, 1, send)})
			d := time.Since(t0)
			sp.end()
			if c.Rank() == 0 {
				face = append(face, d)
				if recv[7] != float64(other*n*n+7) {
					bad = fmt.Errorf("face exchange delivered %v, want %v", recv[7], other*n*n+7)
				}
			}
		}
	})
	p.m["mpi.pingpong_us"] = us(medianDur(rtt))
	p.m["mpi.face.gbps"] = 2 * n * n * 8 / medianDur(face).Seconds() / 1e9
	return bad
}

// par: the fork/join cost of an empty two-thread loop.
func (p *probes) par(root active) error {
	t := par.NewTeam(2)
	defer t.Close()
	d := p.batched(root, "par", "parallel-for", 50, 100, func() {
		t.ParallelFor(2, par.Static, 0, func(lo, hi int) {})
	})
	p.m["par.forkjoin_us"] = d * 1e6
	return nil
}

// gpusim: host cost of an empty kernel launch on a stream.
func (p *probes) gpusim(root active) error {
	d := gpusim.NewDevice(gpusim.TeslaC2050(), gpusim.PCIeGen2())
	s := d.NewStream("bench")
	l := gpusim.StencilLaunch(32, 32, 32, 16, 8)
	host := vtime.Time(0)
	launches := 0
	per := p.batched(root, "gpusim", "launch", 50, 100, func() {
		host = d.Launch(host, s, "empty", l, func() { launches++ })
	})
	p.m["gpusim.launch_us"] = per * 1e6
	if launches != 50*100 {
		return fmt.Errorf("%d kernel bodies ran for %d launches", launches, 50*100)
	}
	return nil
}

// implReps is how many plain runs of each runner the impl probe takes the
// median of; one run's step time alone moved by a third between probes.
const implReps = 3

// impl: each solve runner through advect.Run at the solve size: step and
// set-up time and allocation (medians of implReps runs), and — from one
// more, recorded run — per-rank compute and MPI time per step and the
// hidden share of communication.
func (p *probes) impl(root active) error {
	nu := maxNu()
	for _, spec := range solveRunners {
		kind, err := advect.ParseKind(spec.sim.Kind)
		if err != nil {
			return err
		}
		prob := advect.NewProblem(solveN, solveSteps)
		prob.Nu = nu
		o := advect.Options{Tasks: spec.sim.Tasks, Threads: spec.sim.Threads,
			BlockX: spec.sim.BlockX, BlockY: spec.sim.BlockY, Verify: true}

		var stepMs, setupMs, allocMB, allocs []float64
		for rep := 0; rep < implReps; rep++ {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sp := p.tr.begin("impl", spec.name, root)
			t0 := time.Now()
			res, err := advect.Run(kind, prob, o)
			wall := time.Since(t0)
			sp.end()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.name, err)
			}
			if err := checkSim(service.SimulateResult{Kind: spec.name, L2: res.Norms.L2, LInf: res.Norms.LInf, MassDrift: res.MassDrift},
				solveN, solveSteps, linfBound); err != nil {
				return err
			}
			stepMs = append(stepMs, ms(res.Elapsed)/solveSteps)
			setupMs = append(setupMs, ms(wall-res.Elapsed))
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		}
		p.m["impl.step_ms."+spec.name] = median(stepMs)
		p.m["impl.setup_ms."+spec.name] = median(setupMs)
		p.m["impl.alloc_mb."+spec.name] = median(allocMB)
		p.m["impl.allocs."+spec.name] = median(allocs)

		rec := advect.NewRecorder()
		o.Rec = rec
		sp := p.tr.begin("impl", spec.name+".recorded", root)
		_, err = advect.Run(kind, prob, o)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s recorded: %w", spec.name, err)
		}
		rep := rec.Report()
		for _, r := range rep.Ranks {
			sfx := fmt.Sprintf("%s.r%d", spec.name, r.Rank)
			compute := r.Busy[obs.PhaseInterior.String()] + r.Busy[obs.PhaseBoundary.String()]
			p.m["impl.compute_ms."+sfx] = compute * 1e3 / solveSteps
			if kind.UsesMPI() {
				p.m["impl.mpi_ms."+sfx] = r.Busy[obs.PhaseMPIExchange.String()] * 1e3 / solveSteps
			}
		}
		if spec.name == "nonblocking" {
			p.m["impl.hidden_frac.nonblocking"] = rep.Pair(obs.PairMPICompute).Fraction
		}
	}
	p.m["impl.overlap_saved.nonblocking"] = 1 - p.m["impl.step_ms.nonblocking"]/p.m["impl.step_ms.bulk"]
	return nil
}

// perf: one model evaluation.
func (p *probes) perf(root active) error {
	cfg := perf.Config{M: machine.JaguarPF(), Kind: core.BulkSync, Cores: 96}
	var err error
	d := p.batched(root, "perf", "evaluate", 50, 100, func() {
		_, err = perf.Evaluate(cfg)
	})
	p.m["perf.evaluate_us"] = d * 1e6
	return err
}

// awaitJob waits for a job submitted in-process to rest.
func awaitJob(ctx context.Context, j *service.Job) error {
	for !j.State().Terminal() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Microsecond):
		}
	}
	if st := j.State(); st != service.StateDone {
		return fmt.Errorf("job %s ended %s", j.ID(), st)
	}
	return nil
}

// service: Server.Submit in Go for a cached and a fresh predict, and the
// same cached predict as a direct HTTP POST to the node.
func (p *probes) service(ctx context.Context, root active) error {
	const reps = 400
	srv := service.New(service.Config{Workers: 2, QueueCap: 64, CacheEntries: 4 * reps})
	defer func() { _ = srv.Shutdown() }()
	gen := newServeGen(1)
	hot := gen.hot[0].req
	j, err := srv.Submit(hot)
	if err != nil {
		return err
	}
	if err := awaitJob(ctx, j); err != nil {
		return err
	}
	hits := 0
	ds := p.timed(root, "service", "submit.cached", reps, func() {
		if j, err := srv.Submit(hot); err == nil && j.View().CacheHit {
			hits++
		}
	})
	if hits != reps {
		return fmt.Errorf("%d of %d cached submits were cache hits", hits, reps)
	}
	submitCached := medianDur(ds)
	p.m["service.submit_us.cached"] = us(submitCached)

	fresh := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		req := predictReq(gen.rng, freshBaseN+i)
		sp := p.tr.begin("service", "submit.fresh", root)
		t0 := time.Now()
		j, err := srv.Submit(req)
		fresh = append(fresh, time.Since(t0))
		sp.end()
		if err != nil {
			return err
		}
		if err := awaitJob(ctx, j); err != nil {
			return err
		}
	}
	p.m["service.submit_us.fresh"] = us(medianDur(fresh))

	tc := &testCluster{}
	url, hs, err := tc.serve(srv.Handler())
	if err != nil {
		return err
	}
	defer func() {
		_ = hs.Shutdown(ctx)
		tc.served.Wait()
	}()
	var herr error
	ds = p.timed(root, "service", "http.cached", reps, func() {
		if st, body, err := p.cl.post(ctx, url+"/v1/jobs", hot); err != nil || st != http.StatusOK {
			herr = errors.Join(err, &errStatus{op: "cached POST", code: st, body: body})
		}
	})
	p.m["service.http_us.cached"] = us(medianDur(ds))
	p.m["service.http_overhead_us"] = us(medianDur(ds) - submitCached)
	return herr
}

// cluster: the gateway hop (gateway POST minus direct node POST for the
// same class of request) and a ring lookup.
func (p *probes) cluster(ctx context.Context, root active) error {
	ring := cluster.NewRing([]string{"local-1", "local-2"}, 0)
	keys := make([]string, 1024)
	for i := range keys {
		req := predictReq(newRand(int64(i), 0), freshBaseN+i)
		keys[i] = req.CacheKey()
	}
	i := 0
	var owner string
	d := p.batched(root, "cluster", "ring.lookup", 50, 10000, func() {
		owner = ring.Lookup(keys[i&1023])
		i++
	})
	p.m["cluster.ring_lookup_ns"] = d * 1e9
	if owner == "" {
		return errors.New("ring lookup returned no node")
	}

	c, err := bootCluster("")
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.ready(ctx, p.cl); err != nil {
		return err
	}
	gen := newServeGen(2)
	hot := gen.hot[0]
	if _, err := runJob(ctx, p.cl, c.gwURL, hot.req, fastPlan, nil, active{}); err != nil {
		return err
	}
	nodeURL := c.nodes[0].url
	if ring.Lookup(hot.key) == "local-2" {
		nodeURL = c.nodes[1].url
	}
	const reps = 300
	var gw, direct, gwFresh, directFresh []time.Duration
	var errs []error
	// A fresh predict may be answered 200 instead of 202 when it finishes
	// before the node renders its answer (the submit-path race); that is
	// the program's behaviour to report, not a probe failure.
	post := func(name, url string, req service.Request, fresh bool) time.Duration {
		sp := p.tr.begin("cluster", name, root)
		t0 := time.Now()
		st, body, err := p.cl.post(ctx, url+"/v1/jobs", req)
		d := time.Since(t0)
		sp.end()
		if err != nil || (st != http.StatusOK && !(fresh && st == http.StatusAccepted)) {
			errs = append(errs, errors.Join(err, &errStatus{op: name, code: st, body: body}))
		}
		return d
	}
	for i := 0; i < reps; i++ {
		gw = append(gw, post("gateway.cached", c.gwURL, hot.req, false))
		direct = append(direct, post("node.cached", nodeURL, hot.req, false))
		gwFresh = append(gwFresh, post("gateway.fresh", c.gwURL, predictReq(gen.rng, 200000+i), true))
		directFresh = append(directFresh, post("node.fresh", nodeURL, predictReq(gen.rng, 100000+i), true))
		if len(errs) > 0 {
			break
		}
	}
	p.m["cluster.hop_us.cached"] = us(medianDur(gw) - medianDur(direct))
	p.m["cluster.hop_us.fresh"] = us(medianDur(gwFresh) - medianDur(directFresh))
	return errors.Join(errs...)
}

// session: a session run by a manager whose runner is timed, so segment
// time (event to event) splits into runner time and checkpoint overhead;
// then checkpoint save and load through the store.
func (p *probes) session(root active) error {
	dir := filepath.Join(p.dir, "probe-store")
	defer os.RemoveAll(dir)
	store, err := session.Open(dir)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var runs, segs []time.Duration
	last := time.Now()
	done := make(chan session.Event, 1)
	var whole active // the create→done span; segments' runner calls are its children
	mgr, err := session.NewManager(session.Config{
		Store: store, Segment: sessSegment,
		Run: func(ctx context.Context, k core.Kind, pr core.Problem, o core.Options) (*core.Result, error) {
			sp := p.tr.begin("session", "runner", whole)
			t0 := time.Now()
			res, err := advect.RunContext(ctx, k, pr, o)
			d := time.Since(t0)
			sp.end()
			mu.Lock()
			runs = append(runs, d)
			mu.Unlock()
			return res, err
		},
		Notify: func(ev session.Event) {
			switch ev.Type {
			case session.EventSegment:
				now := time.Now()
				mu.Lock()
				segs = append(segs, now.Sub(last))
				last = now
				mu.Unlock()
			case session.EventDone, session.EventFailed:
				done <- ev
			}
		},
	})
	if err != nil {
		return err
	}
	defer mgr.Close()
	prob := core.DefaultProblem(sessN, sessSteps)
	prob.Nu = maxNu()
	whole = p.tr.begin("session", "create→done", root)
	mu.Lock()
	last = time.Now()
	mu.Unlock()
	s, err := mgr.Create(session.Scenario{Kind: core.BulkSync, Problem: prob,
		Options: core.Options{Tasks: 2}, Segment: sessSegment})
	if err != nil {
		return err
	}
	var ev session.Event
	select {
	case ev = <-done:
	case <-time.After(2 * time.Minute):
		return errors.New("probe session did not finish in 2m")
	}
	whole.end()
	if ev.Type != session.EventDone {
		return fmt.Errorf("probe session %s: %s", s.ID(), ev.Session.Error)
	}
	mu.Lock()
	seg, run := medianDur(segs), medianDur(runs)
	mu.Unlock()
	p.m["session.segment_ms"] = ms(seg)
	p.m["session.runner_ms"] = ms(run)
	p.m["session.ckpt_overhead_frac"] = 1 - run.Seconds()/seg.Seconds()

	step, ok := store.Latest(s.Fingerprint())
	if !ok {
		return errors.New("probe session left no checkpoint")
	}
	var meta checkpoint.Meta
	var f *grid.Field
	ds := p.timed(root, "checkpoint", "load", 5, func() {
		meta, f, err = store.LoadCheckpoint(s.Fingerprint(), step)
	})
	if err != nil {
		return err
	}
	p.m["checkpoint.load_ms"] = ms(medianDur(ds))
	ds = p.timed(root, "checkpoint", "save", 5, func() {
		if e := store.SaveCheckpoint(meta, f); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	p.m["checkpoint.save_ms"] = ms(medianDur(ds))
	raw, err := store.CheckpointBytes(s.Fingerprint(), step)
	if err != nil {
		return err
	}
	p.m["checkpoint.bytes"] = float64(len(raw))
	_, back, err := store.LoadCheckpoint(s.Fingerprint(), step)
	if err != nil {
		return err
	}
	a, b := f.Data(), back.Data()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("checkpoint round trip changed value %d: %v → %v", i, a[i], b[i])
		}
	}
	return nil
}
