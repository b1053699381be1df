package impl

import (
	"math"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// bulkSync is §IV-B: distributed-memory parallelism added to the
// single-task implementation. Each step performs the whole halo exchange
// (all three serialized dimension phases) before any computation starts —
// bulk synchronous — then computes and copies locally.
type bulkSync struct{}

func (bulkSync) Kind() core.Kind { return core.BulkSync }

func (bulkSync) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runWorld(core.BulkSync, p, o, func(r *rank) *grid.Field {
		cs := r.cpuState(1)
		ex := r.haloExchanger(cs.cur)
		whole := stencil.Whole(cs.cur.N)
		r.timed(func() {
			for s := 0; s < r.p.Steps; s++ {
				checkCancelRank(r.o)
				ex.setStep(s)
				ex.exchangeAll()
				sp := r.span(s, obs.PhaseInterior, "whole")
				cs.compute(whole)
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

// distributedNorms computes the error norms against the analytic solution
// the way a real MPI code does (paper §IV-A records norms): each rank
// reduces its own subdomain with the thread team, then the squared sums
// and maxima are combined across ranks with Allreduce. With Verify, every
// rank records the global norms as its dist.l2 and dist.linf stats.
func (r *rank) distributedNorms(cs *cpuState) {
	if !r.o.Verify {
		return
	}
	p, sub, local := r.p, r.sub, cs.cur
	tFinal := p.T0 + p.Nu*float64(p.Steps)
	rows := sub.Size.Y * sub.Size.Z
	sumsq := cs.team.ReduceSum(rows, func(lo, hi int) float64 {
		var s float64
		for row := lo; row < hi; row++ {
			k := row / sub.Size.Y
			j := row % sub.Size.Y
			for i := 0; i < sub.Size.X; i++ {
				d := local.At(i, j, k) - p.Wave.Analytic(p.N, p.C, tFinal,
					sub.Lo.X+i, sub.Lo.Y+j, sub.Lo.Z+k)
				s += d * d
			}
		}
		return s
	})
	maxAbs := cs.team.ReduceMax(rows, func(lo, hi int) float64 {
		var m float64
		for row := lo; row < hi; row++ {
			k := row / sub.Size.Y
			j := row % sub.Size.Y
			for i := 0; i < sub.Size.X; i++ {
				d := math.Abs(local.At(i, j, k) - p.Wave.Analytic(p.N, p.C, tFinal,
					sub.Lo.X+i, sub.Lo.Y+j, sub.Lo.Z+k))
				if d > m {
					m = d
				}
			}
		}
		return m
	})
	vals := []float64{sumsq}
	r.c.Allreduce(mpi.OpSum, vals)
	maxv := []float64{maxAbs}
	r.c.Allreduce(mpi.OpMax, maxv)
	r.extra["dist.l2"] = math.Sqrt(vals[0] / float64(p.N.Volume()))
	r.extra["dist.linf"] = maxv[0]
}
