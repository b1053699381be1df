// Package impl contains functional implementations of the paper's nine
// strategies (§IV-A through §IV-I), built on the reproduction's substrates:
// internal/par in place of OpenMP, internal/mpi in place of MPI, and
// internal/gpusim in place of CUDA Fortran. Every implementation integrates
// the same advection problem with the same factored stencil arithmetic
// (stencil.Combine, in one fixed order per point) and must reproduce the
// single-task result bit for bit; the tests enforce this
// cross-implementation agreement, which is the reproduction's analog of the
// paper's norm-based verification (§IV-A).
//
// These runners establish functional correctness and expose the real
// concurrency structure (what can overlap with what). The performance of
// the paper's machines at scale is modelled separately by internal/perf.
package impl

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/stencil"
)

func init() {
	core.Register(core.SingleTask, func() core.Runner { return singleTask{} })
	core.Register(core.BulkSync, func() core.Runner { return bulkSync{} })
	core.Register(core.NonblockingOverlap, func() core.Runner { return nonblockingOverlap{} })
	core.Register(core.ThreadedOverlap, func() core.Runner { return threadedOverlap{} })
	core.Register(core.GPUResident, func() core.Runner { return gpuResident{} })
	core.Register(core.GPUBulkSync, func() core.Runner { return gpuBulkSync{} })
	core.Register(core.GPUStreams, func() core.Runner { return gpuStreams{} })
	core.Register(core.HybridBulkSync, func() core.Runner { return hybridRunner{overlap: false} })
	core.Register(core.HybridOverlap, func() core.Runner { return hybridRunner{overlap: true} })
}

// fillLocal initializes a rank's local field from the global initial
// condition (the Gaussian wave, or a checkpointed state): local point
// (i,j,k) is global point sub.Lo + (i,j,k).
func fillLocal(f *grid.Field, p core.Problem, sub grid.Subdomain) {
	f.Fill(func(i, j, k int) float64 {
		return p.InitialValue(sub.Lo.X+i, sub.Lo.Y+j, sub.Lo.Z+k)
	})
}

// gather assembles the global field on rank 0 from each rank's local
// interior; other ranks return nil.
func gather(c *mpi.Comm, d grid.Decomp, local *grid.Field) *grid.Field {
	flat := make([]float64, local.N.Volume())
	n := 0
	for k := 0; k < local.N.Z; k++ {
		for j := 0; j < local.N.Y; j++ {
			for i := 0; i < local.N.X; i++ {
				flat[n] = local.At(i, j, k)
				n++
			}
		}
	}
	parts := c.Gather(0, flat)
	if c.Rank() != 0 {
		return nil
	}
	global := grid.NewField(d.N, 1)
	for r := 0; r < d.Tasks(); r++ {
		sub := d.Sub(r)
		src := parts[r]
		n := 0
		for k := 0; k < sub.Size.Z; k++ {
			for j := 0; j < sub.Size.Y; j++ {
				for i := 0; i < sub.Size.X; i++ {
					global.Set(sub.Lo.X+i, sub.Lo.Y+j, sub.Lo.Z+k, src[n])
					n++
				}
			}
		}
	}
	return global
}

// finishResult fills the verification and throughput fields of a result.
func finishResult(res *core.Result, p core.Problem, o core.Options, elapsed time.Duration, initialMass float64) {
	res.Elapsed = elapsed
	if s := elapsed.Seconds(); s > 0 {
		res.GF = p.Flops() * float64(p.Steps) / s / 1e9
	}
	if o.Verify && res.Final != nil {
		tFinal := p.T0 + p.Nu*float64(p.Steps)
		res.Norms = grid.NormsAgainst(res.Final, func(i, j, k int) float64 {
			return p.Wave.Analytic(p.N, p.C, tFinal, i, j, k)
		})
		res.MassDrift = math.Abs(res.Final.InteriorSum() - initialMass)
	}
}

// globalMass returns the initial mass of the problem, for drift checks.
func globalMass(p core.Problem) float64 {
	if p.Initial != nil {
		return p.Initial.InteriorSum()
	}
	f := grid.NewField(p.N, 1)
	grid.FillGaussian(f, p.Wave)
	return f.InteriorSum()
}

// checkMPIOptions validates distributed-run options against the problem.
func checkMPIOptions(p core.Problem, o core.Options) error {
	if o.Tasks < 1 {
		return fmt.Errorf("impl: task count %d < 1", o.Tasks)
	}
	min := p.N.X
	if p.N.Y < min {
		min = p.N.Y
	}
	if p.N.Z < min {
		min = p.N.Z
	}
	if o.Tasks > min {
		return fmt.Errorf("impl: %d tasks too many for grid %v (subdomains thinner than the stencil)", o.Tasks, p.N)
	}
	return nil
}

// opFor prepares the stencil operator for fields shaped like f.
func opFor(p core.Problem, f *grid.Field) *stencil.Op {
	return stencil.NewOp(stencil.TableI(p.C, p.Nu), f)
}

// distributedNorms computes the error norms against the analytic solution
// the way a real MPI code does (paper §IV-A records norms): each rank
// reduces its own subdomain with the thread team, then the squared sums
// and maxima are combined across ranks with Allreduce. Every rank returns
// the same global norms.
func distributedNorms(c *mpi.Comm, team *par.Team, p core.Problem, sub grid.Subdomain, local *grid.Field, tFinal float64) grid.Norms {
	rows := sub.Size.Y * sub.Size.Z
	sumsq := team.ReduceSum(rows, func(lo, hi int) float64 {
		var s float64
		for r := lo; r < hi; r++ {
			k := r / sub.Size.Y
			j := r % sub.Size.Y
			for i := 0; i < sub.Size.X; i++ {
				d := local.At(i, j, k) - p.Wave.Analytic(p.N, p.C, tFinal,
					sub.Lo.X+i, sub.Lo.Y+j, sub.Lo.Z+k)
				s += d * d
			}
		}
		return s
	})
	maxAbs := team.ReduceMax(rows, func(lo, hi int) float64 {
		var m float64
		for r := lo; r < hi; r++ {
			k := r / sub.Size.Y
			j := r % sub.Size.Y
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
	c.Allreduce(mpi.OpSum, vals)
	maxv := []float64{maxAbs}
	c.Allreduce(mpi.OpMax, maxv)
	return grid.Norms{
		L2:   math.Sqrt(vals[0] / float64(p.N.Volume())),
		LInf: maxv[0],
	}
}

// checkCancelRank polls the run's cancellation context from inside a rank
// goroutine and panics with the context error when it fires. The panic
// poisons the world (unblocking ranks already waiting in an exchange), and
// safeWorldRun converts it back into an error; cancelOr then maps whatever
// rank's panic won the race onto the context error, so callers see a clean
// cancellation instead of a poisoned-world message.
func checkCancelRank(o core.Options) {
	if err := o.CheckCancel(); err != nil {
		panic(err)
	}
}

// cancelOr maps a world-poisoning failure back onto the cancellation that
// caused it: when the options context is cancelled, any rank error —
// whichever rank's panic was observed first — is reported as the context
// error. Genuine failures pass through unchanged.
func cancelOr(o core.Options, err error) error {
	if err == nil {
		return nil
	}
	if cerr := o.CheckCancel(); cerr != nil {
		return fmt.Errorf("impl: run cancelled: %w", cerr)
	}
	return err
}

// safeWorldRun executes the world and converts a rank panic (which
// mpi.World.Run re-panics after poisoning the world) into an error, so the
// public Run API reports failures instead of crashing the caller.
func safeWorldRun(w *mpi.World, fn func(*mpi.Comm)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("impl: %v", p)
		}
	}()
	w.Run(fn)
	return nil
}
