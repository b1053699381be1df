package impl

import (
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// threadedOverlap is §IV-D: overlap via an asynchronous OpenMP thread
// instead of nonblocking MPI. The master thread performs the whole
// (blocking, dimension-serialized) MPI communication and then joins the
// computation of the interior points, which the other threads began
// immediately; guided scheduling distributes chunks as threads request
// them so the late-joining master still gets work. A barrier (implicit at
// the end of the parallel region) ensures communication has completed
// before the boundary points are computed.
type threadedOverlap struct{}

func (threadedOverlap) Kind() core.Kind { return core.ThreadedOverlap }

func (threadedOverlap) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runWorld(core.ThreadedOverlap, p, o, func(r *rank) *grid.Field {
		cs := r.cpuState(1)
		ex := r.haloExchanger(cs.cur)
		interior := stencil.Interior(cs.cur.N)
		boundary := stencil.BoundarySlabs(cs.cur.N)
		whole := stencil.Whole(cs.cur.N)
		r.timed(func() {
			for s := 0; s < r.p.Steps; s++ {
				checkCancelRank(r.o)
				ex.setStep(s)
				// The interior span brackets the whole region: the workers
				// compute for its entire duration while the master's
				// exchange spans land inside it — that containment is the
				// overlap.
				sp := r.span(s, obs.PhaseInterior, "master+workers")
				r.team.RunWithMaster(ex.exchangeAll, stencil.Rows(interior), 1, func(lo, hi int) {
					cs.op.ApplyRows(cs.cur, cs.nxt, interior, lo, hi)
				})
				sp.End()
				sp = r.span(s, obs.PhaseBoundary, "slabs")
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
