package impl

import (
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// nonblockingOverlap is §IV-C: the common overlap strategy. The local
// domain is partitioned into interior points (stencil reads no halo) and
// boundary points; the interior is further cut into thirds along z. Each
// dimension's nonblocking exchange brackets one third: the first third
// computes between initiation and completion of the x communication, the
// second within y, the third within z. The boundary points are computed
// after all communication completes.
type nonblockingOverlap struct{}

func (nonblockingOverlap) Kind() core.Kind { return core.NonblockingOverlap }

func (nonblockingOverlap) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runWorld(core.NonblockingOverlap, p, o, func(r *rank) *grid.Field {
		cs := r.cpuState(1)
		ex := r.haloExchanger(cs.cur)
		thirds := stencil.InteriorThirds(cs.cur.N)
		boundary := stencil.BoundarySlabs(cs.cur.N)
		whole := stencil.Whole(cs.cur.N)
		r.timed(func() {
			for s := 0; s < r.p.Steps; s++ {
				checkCancelRank(r.o)
				ex.setStep(s)
				for dim := 0; dim < 3; dim++ {
					ph := ex.start(dim)
					sp := r.span(s, obs.PhaseInterior, "third."+dimNames[dim])
					cs.compute(thirds[dim])
					sp.End()
					ex.finish(ph)
				}
				// "The threads compute the boundary points after the
				// communication."
				sp := r.span(s, obs.PhaseBoundary, "slabs")
				for _, sub := range boundary {
					cs.compute(sub)
				}
				sp.End()
				sp = r.span(s, obs.PhaseCopy, "")
				cs.commit(whole)
				sp.End()
			}
		})
		r.distributedNorms(cs)
		return cs.cur
	})
}
