package impl

import (
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

// singleTask is the paper's baseline (§IV-A): one task, OpenMP threading.
// Each time step performs the paper's three algorithmic steps:
//
//  1. copy periodic boundaries (doubly nested loops, outer loop threaded),
//  2. compute the new state with Eq. 2 (triply nested loops, outermost two
//     collapsed and threaded), and
//  3. copy the new state to the current state (same loop structure).
type singleTask struct{}

func (singleTask) Kind() core.Kind { return core.SingleTask }

func (singleTask) Run(p core.Problem, o core.Options) (*core.Result, error) {
	o.Tasks = 1 // single task by definition
	return runWorld(core.SingleTask, p, o, func(r *rank) *grid.Field {
		cs := r.cpuState(1)
		whole := stencil.Whole(cs.cur.N)
		r.timed(func() {
			for s := 0; s < r.p.Steps; s++ {
				checkCancelRank(r.o)
				// Step 1: periodic halo copy. The three dimension sweeps
				// are each threaded over their outer loop; keeping them
				// serialized preserves the corner-propagation order.
				sp := r.span(s, obs.PhaseHaloUnpack, "periodic")
				copyPeriodicHalosParallel(r.team, cs.cur)
				sp.End()

				// Step 2: compute, collapse(2) over the (k, j) loops.
				sp = r.span(s, obs.PhaseInterior, "whole")
				cs.compute(whole)
				sp.End()

				// Step 3: copy new state to current state (the paper
				// copies rather than swapping buffers).
				sp = r.span(s, obs.PhaseCopy, "")
				cs.commit(whole)
				sp.End()
			}
		})
		return cs.cur
	})
}

// cpuState is a CPU rank's state: the current and next fields over its
// subdomain, the stencil operator, and the thread team that sweeps them.
// Every CPU schedule, distributed or not, is built from it.
type cpuState struct {
	team     *par.Team
	cur, nxt *grid.Field
	op       *stencil.Op
}

// cpuState allocates the rank's field pair with the given halo width and
// fills the current field with the initial condition.
func (r *rank) cpuState(halo int) *cpuState {
	cur := grid.NewField(r.sub.Size, halo)
	r.fill(cur)
	return &cpuState{
		team: r.team, cur: cur, nxt: grid.NewField(r.sub.Size, halo),
		op: stencil.NewOp(stencil.TableI(r.p.C, r.p.Nu), cur),
	}
}

// compute applies the stencil to sub of cur, writing nxt, threaded over
// sub's (k, j) rows.
func (cs *cpuState) compute(sub grid.Subdomain) {
	if sub.Empty() {
		return
	}
	cs.team.ParallelFor(stencil.Rows(sub), par.Static, 0, func(lo, hi int) {
		cs.op.ApplyRows(cs.cur, cs.nxt, sub, lo, hi)
	})
}

// commit copies sub of nxt back into cur (the paper's Step 3).
func (cs *cpuState) commit(sub grid.Subdomain) {
	if sub.Empty() {
		return
	}
	cs.team.ParallelFor(stencil.Rows(sub), par.Static, 0, func(lo, hi int) {
		copyRows(cs.nxt, cs.cur, sub, lo, hi)
	})
}

// copyRows copies the x-rows of sub with flattened (k, j) indices in
// [lo, hi) from src to dst (the paper's Step 3 loop body).
func copyRows(src, dst *grid.Field, sub grid.Subdomain, lo, hi int) {
	ny := sub.Size.Y
	nx := sub.Size.X
	for r := lo; r < hi; r++ {
		k := sub.Lo.Z + r/ny
		j := sub.Lo.Y + r%ny
		s := src.Idx(sub.Lo.X, j, k)
		d := dst.Idx(sub.Lo.X, j, k)
		copy(dst.Data()[d:d+nx], src.Data()[s:s+nx])
	}
}

// copyPeriodicHalosParallel performs the single-task periodic boundary
// copy with each dimension sweep threaded over its outer loop, exactly the
// structure of §IV-A Step 1. Correctness requires the x sweep to finish
// before y and y before z, which the implicit barrier after each
// ParallelFor provides.
func copyPeriodicHalosParallel(team *par.Team, f *grid.Field) {
	n := f.N
	h := f.Halo
	d := f.Data()
	// x sweep over (k, j).
	team.ParallelFor(n.Z*n.Y, par.Static, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			k := r / n.Y
			j := r % n.Y
			for g := 1; g <= h; g++ {
				d[f.Idx(-g, j, k)] = d[f.Idx(n.X-g, j, k)]
				d[f.Idx(n.X-1+g, j, k)] = d[f.Idx(g-1, j, k)]
			}
		}
	})
	// y sweep over k, x range widened.
	team.ParallelFor(n.Z, par.Static, 0, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for g := 1; g <= h; g++ {
				w := n.X + 2*h
				src1 := f.Idx(-h, n.Y-g, k)
				dst1 := f.Idx(-h, -g, k)
				src2 := f.Idx(-h, g-1, k)
				dst2 := f.Idx(-h, n.Y-1+g, k)
				copy(d[dst1:dst1+w], d[src1:src1+w])
				copy(d[dst2:dst2+w], d[src2:src2+w])
			}
		}
	})
	// z sweep over j, x and y ranges widened.
	team.ParallelFor(n.Y+2*h, par.Static, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			j := r - h
			for g := 1; g <= h; g++ {
				w := n.X + 2*h
				src1 := f.Idx(-h, j, n.Z-g)
				dst1 := f.Idx(-h, j, -g)
				src2 := f.Idx(-h, j, g-1)
				dst2 := f.Idx(-h, j, n.Z-1+g)
				copy(d[dst1:dst1+w], d[src1:src1+w])
				copy(d[dst2:dst2+w], d[src2:src2+w])
			}
		}
	})
}
