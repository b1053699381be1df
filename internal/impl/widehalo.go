package impl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
)

func init() {
	core.Register(core.WideHaloExt, func() core.Runner { return wideHalo{} })
}

// wideHalo is this reproduction's extension implementation: a
// communication-avoiding variant of the bulk-synchronous code. Instead of
// exchanging a one-point halo every step, it exchanges a W-point halo once
// every W steps and redundantly computes a shrinking extended region in
// between: after the exchange the state is valid on [-W, n+W); inner step
// k computes the region extended by W-1-k points, so after W steps exactly
// the interior is valid again. The trade is W-fold fewer messages (and
// W-fold fewer latency payments) for O(surface·W²) redundant flops — the
// classic optimization for latency-dominated strong scaling, which the
// paper's Figures 3-4 regime motivates but the paper itself does not test.
type wideHalo struct{}

func (wideHalo) Kind() core.Kind { return core.WideHaloExt }

func (wideHalo) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runWorld(core.WideHaloExt, p, o, func(r *rank) *grid.Field {
		W, n := r.o.HaloWidth, r.sub.Size
		if n.X < W || n.Y < W || n.Z < W {
			panic(fmt.Errorf("impl: halo width %d exceeds subdomain %v", W, n))
		}
		r.extra["halo.width"] = float64(W)
		cs := r.cpuState(W)
		ex := r.haloExchanger(cs.cur)
		r.timed(func() {
			for s := 0; s < r.p.Steps; s++ {
				checkCancelRank(r.o)
				// One wide exchange covers the next burst of up to W inner
				// steps; inner step k of a burst computes the region
				// extended by burst-1-k points, so validity shrinks back to
				// the interior on the burst's last step (a short final
				// burst included).
				k := s % W
				if k == 0 {
					ex.setStep(s)
					ex.exchangeAll()
				}
				e := min(W, r.p.Steps-(s-k)) - 1 - k
				region := grid.Subdomain{
					Lo:   grid.Dims{X: -e, Y: -e, Z: -e},
					Size: grid.Dims{X: n.X + 2*e, Y: n.Y + 2*e, Z: n.Z + 2*e},
				}
				sp := r.span(s, obs.PhaseInterior, "extended")
				cs.compute(region)
				sp.End()
				sp = r.span(s, obs.PhaseCopy, "")
				cs.commit(region)
				sp.End()
			}
		})
		return cs.cur
	})
}
