package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/service"
	"repro/internal/stencil"
)

// solve: closed loop, one client. Each cycle submits one verified
// simulate job to each of four runners, all at one Courant number drawn
// from the seed, so no job is a cache hit.

const (
	solveN     = 96
	solveSteps = 40
	// linfBound caps the error against the analytic solution at 96³ after
	// 40 steps (about 5.2e-3 to 5.5e-3 over the ν range drawn).
	linfBound = 1e-2
	// agreeTol is how closely the runners of a cycle must agree on l2 and
	// linf: they compute the same arithmetic in different orders.
	agreeTol = 1e-12
)

type runnerSpec struct {
	name string
	sim  service.SimulateRequest
}

var solveRunners = []runnerSpec{
	{"single", service.SimulateRequest{Kind: "single", Threads: 2}},
	{"bulk", service.SimulateRequest{Kind: "bulk", Tasks: 2}},
	{"nonblocking", service.SimulateRequest{Kind: "nonblocking", Tasks: 2}},
	{"hybrid", service.SimulateRequest{Kind: "hybrid-overlap", Tasks: 2, Threads: 1, BlockX: 16, BlockY: 8}},
}

// massBound is the roundoff budget for the mass drift of an n³ grid over
// steps steps: one unit roundoff per point update.
func massBound(n, steps int) float64 {
	return 0x1p-52 * float64(n*n*n) * float64(steps)
}

// paperGF is paper-equivalent throughput: 53 flops per point update over
// the time to a verified solution.
func paperGF(n, steps int, lat time.Duration) float64 {
	return stencil.FlopsPerPoint * float64(n*n*n) * float64(steps) / lat.Seconds() / 1e9
}

type solveWorkload struct {
	nus     *nuSource
	fastest fastest
}

func newSolve(seed int64) *solveWorkload {
	return &solveWorkload{nus: newNuSource(newRand(seed, streamSolve)), fastest: fastest{}}
}

func simRequest(spec runnerSpec, n, steps int, nu float64) service.Request {
	sim := spec.sim
	sim.N, sim.Steps, sim.Nu, sim.Verify = n, steps, nu, true
	return service.Request{Type: service.TypeSimulate, Simulate: &sim}
}

// warm runs each runner once at a small size through the gateway.
func (w *solveWorkload) warm(ctx context.Context, e *env) error {
	nu := w.nus.next()
	for _, spec := range solveRunners {
		out, err := runJob(ctx, e.cl, e.c.gwURL, simRequest(spec, 48, 10, nu), planFor(0), nil, active{})
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", spec.name, err)
		}
		if _, err := decodeSim(out.doc); err != nil {
			return fmt.Errorf("warm-up %s: %w", spec.name, err)
		}
	}
	return nil
}

func decodeSim(doc []byte) (service.SimulateResult, error) {
	var r service.SimulateResult
	if err := json.Unmarshal(doc, &r); err != nil {
		return r, fmt.Errorf("decoding simulate result: %w", err)
	}
	return r, nil
}

// checkSim applies the per-job checks: finite error under the bound and
// mass conserved to roundoff.
func checkSim(r service.SimulateResult, n, steps int, linfMax float64) error {
	if math.IsNaN(r.LInf) || r.LInf <= 0 || r.LInf >= linfMax {
		return fmt.Errorf("%s: linf %g outside (0, %g)", r.Kind, r.LInf, linfMax)
	}
	if math.IsNaN(r.L2) || r.L2 <= 0 {
		return fmt.Errorf("%s: l2 %g not positive", r.Kind, r.L2)
	}
	if d := math.Abs(r.MassDrift); math.IsNaN(d) || d > massBound(n, steps) {
		return fmt.Errorf("%s: mass drift %g beyond roundoff %g", r.Kind, r.MassDrift, massBound(n, steps))
	}
	return nil
}

func (w *solveWorkload) measure(ctx context.Context, e *env, span time.Duration, tr *tracer) (*result, error) {
	res := newResult()
	lat := map[string][]time.Duration{}
	var all []float64
	began := time.Now()
	deadline := began.Add(span)
	prev := began
	for i := 0; time.Now().Before(deadline); i++ {
		nu := w.nus.next()
		ctr := tr.sample(i)
		var cycle []service.SimulateResult
		for _, spec := range solveRunners {
			root := ctr.begin("request", spec.name, active{})
			res.attempted++
			start := time.Now()
			res.lateMs = append(res.lateMs, ms(start.Sub(prev)))
			out, err := runJob(ctx, e.cl, e.c.gwURL, simRequest(spec, solveN, solveSteps, nu), planFor(w.fastest[spec.name]), ctr, root)
			prev = time.Now()
			d := prev.Sub(start)
			if err != nil {
				root.end()
				res.fail(err)
				continue
			}
			vs := ctr.begin("verify", "check", root)
			r, err := decodeSim(out.doc)
			if err == nil {
				err = checkSim(r, solveN, solveSteps, linfBound)
			}
			vs.end()
			root.end()
			res.countTraffic(out, false)
			if err != nil {
				res.problem(err)
				continue
			}
			w.fastest.note(spec.name, d)
			lat[spec.name] = append(lat[spec.name], d)
			all = append(all, ms(d))
			res.timed(ctr, spec.name, ms(d))
			cycle = append(cycle, r)
		}
		if len(cycle) == len(solveRunners) {
			for _, r := range cycle[1:] {
				if !relClose(r.L2, cycle[0].L2, agreeTol) || !relClose(r.LInf, cycle[0].LInf, agreeTol) {
					res.problem(fmt.Errorf("ν=%v: %s (l2 %.17g, linf %.17g) disagrees with %s (l2 %.17g, linf %.17g)",
						nu, r.Kind, r.L2, r.LInf, cycle[0].Kind, cycle[0].L2, cycle[0].LInf))
				}
			}
		}
	}
	var gfs, p50s []float64
	for _, spec := range solveRunners {
		ds := lat[spec.name]
		if len(ds) == 0 {
			return nil, fmt.Errorf("solve: no verified %s job in %v", spec.name, span)
		}
		var g []float64
		for _, d := range ds {
			g = append(g, paperGF(solveN, solveSteps, d))
		}
		gf := median(g)
		gfs = append(gfs, gf)
		p50s = append(p50s, median(msOf(ds)))
		res.line("solve.gf.%s %.4f GF (median of %d jobs, %.4f to %.4f)", spec.name, gf, len(ds), quantile(g, 0), quantile(g, 1))
	}
	res.e2e["gf"] = geomean(gfs)
	res.e2e["p50_ms"] = geomean(p50s)
	res.setTail(all)
	res.e2e["ops_per_s"] = float64(len(all)) / time.Since(began).Seconds()
	return res, nil
}
