// Package impl contains functional implementations of the paper's nine
// strategies (§IV-A through §IV-I) and a tenth, the wide-halo extension,
// built on the reproduction's substrates: internal/par in place of OpenMP,
// internal/mpi in place of MPI, and internal/gpusim in place of CUDA
// Fortran.
//
// All ten runners share one scaffold, runWorld: it owns the world of
// ranks, each rank's thread team and device, the barrier-bracketed timing,
// the gather and the statistics, so a runner is only its schedule — its
// fields and its step loop. Single-task and GPU-resident run as one-rank
// worlds through the same path.
//
// Every implementation integrates the same advection problem with the same
// factored stencil arithmetic (stencil.Combine, in one fixed order per
// point) and must reproduce the single-task result bit for bit; the tests
// enforce this cross-implementation agreement, which is the reproduction's
// analog of the paper's norm-based verification (§IV-A).
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

// finishResult fills the verification and throughput fields of a result;
// initialMass is the interior sum of the initial field (Verify only).
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

// checkMPIOptions validates distributed-run options against the problem.
func checkMPIOptions(p core.Problem, o core.Options) error {
	if o.Tasks < 1 {
		return fmt.Errorf("impl: task count %d < 1", o.Tasks)
	}
	if o.Tasks > min(p.N.X, p.N.Y, p.N.Z) {
		return fmt.Errorf("impl: %d tasks too many for grid %v (subdomains thinner than the stencil)", o.Tasks, p.N)
	}
	return nil
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
