package impl

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// reference runs the single-task implementation and returns its final field.
func reference(t *testing.T, p core.Problem) *grid.Field {
	t.Helper()
	r, err := core.New(core.SingleTask)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(p, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Final
}

// agree asserts two fields match to tight roundoff.
func agree(t *testing.T, name string, got, want *grid.Field) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil final field", name)
	}
	nm := grid.DiffNorms(got, want)
	if nm.LInf > 1e-12 {
		t.Fatalf("%s: differs from single-task reference: LInf=%g L2=%g", name, nm.LInf, nm.L2)
	}
}

func run(t *testing.T, k core.Kind, p core.Problem, o core.Options) *core.Result {
	t.Helper()
	r, err := core.New(k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(p, o)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return res
}

func TestAllKindsRegistered(t *testing.T) {
	registered := map[core.Kind]bool{}
	for _, k := range core.Registered() {
		registered[k] = true
	}
	// All nine paper implementations plus the wide-halo extension.
	for _, k := range append(core.Kinds(), core.WideHaloExt) {
		if !registered[k] {
			t.Fatalf("%v not registered", k)
		}
	}
}

func TestSingleTaskMatchesAnalyticShift(t *testing.T) {
	// c=(1,1,1), ν=1: every step is an exact lattice shift, so the
	// numerical solution equals the analytic one to roundoff.
	p := core.Problem{N: grid.Uniform(12), C: grid.Velocity{X: 1, Y: 1, Z: 1}, Steps: 5}
	res := run(t, core.SingleTask, p, core.Options{Threads: 3, Verify: true})
	if res.Norms.LInf > 1e-12 {
		t.Fatalf("exact-shift error: %+v", res.Norms)
	}
	if res.MassDrift > 1e-10 {
		t.Fatalf("mass drift %g", res.MassDrift)
	}
}

func TestSingleTaskThreadInvariance(t *testing.T) {
	p := core.DefaultProblem(14, 4)
	want := reference(t, p)
	for _, threads := range []int{1, 4, 7} {
		res := run(t, core.SingleTask, p, core.Options{Threads: threads})
		agree(t, "threads", res.Final, want)
	}
}

// taskCounts exercises cubic, prime, self-neighbor, and anisotropic
// decompositions.
var taskCounts = []int{1, 2, 3, 4, 5, 7, 8, 12}

func TestBulkSyncMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		res := run(t, core.BulkSync, p, core.Options{Tasks: tasks, Threads: 2})
		agree(t, "bulk", res.Final, want)
		if tasks > 1 && res.Stats["mpi.messages"] == 0 {
			t.Fatalf("tasks=%d: no MPI traffic recorded", tasks)
		}
	}
}

func TestNonblockingOverlapMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		res := run(t, core.NonblockingOverlap, p, core.Options{Tasks: tasks, Threads: 2})
		agree(t, "nonblocking", res.Final, want)
	}
}

func TestThreadedOverlapMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		for _, threads := range []int{1, 3} {
			res := run(t, core.ThreadedOverlap, p, core.Options{Tasks: tasks, Threads: threads})
			agree(t, "threaded", res.Final, want)
		}
	}
}

func TestGPUResidentMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, blk := range [][2]int{{8, 4}, {16, 8}, {32, 8}, {5, 3}} {
		res := run(t, core.GPUResident, p, core.Options{BlockX: blk[0], BlockY: blk[1]})
		agree(t, "gpu-resident", res.Final, want)
		if res.Stats["gpu.kernels"] != float64(p.Steps) {
			t.Fatalf("block %v: %v kernels, want %d", blk, res.Stats["gpu.kernels"], p.Steps)
		}
	}
}

func TestGPUResidentBothDevices(t *testing.T) {
	p := core.DefaultProblem(12, 2)
	want := reference(t, p)
	for _, g := range []core.GPUModel{core.GPUC1060, core.GPUC2050} {
		res := run(t, core.GPUResident, p, core.Options{GPU: g, BlockX: 8, BlockY: 4})
		agree(t, g.String(), res.Final, want)
	}
}

func TestGPUBulkSyncMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		res := run(t, core.GPUBulkSync, p, core.Options{Tasks: tasks, BlockX: 8, BlockY: 4})
		agree(t, "gpu-bulk", res.Final, want)
		if res.Stats["pcie.bytes"] == 0 {
			t.Fatal("no PCIe traffic recorded")
		}
	}
}

func TestGPUStreamsMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		res := run(t, core.GPUStreams, p, core.Options{Tasks: tasks, BlockX: 8, BlockY: 4})
		agree(t, "gpu-streams", res.Final, want)
	}
}

func TestHybridBulkSyncMatchesReference(t *testing.T) {
	p := core.DefaultProblem(16, 3)
	want := reference(t, p)
	for _, tasks := range []int{1, 2, 4} {
		for _, thick := range []int{1, 2, 3} {
			res := run(t, core.HybridBulkSync, p,
				core.Options{Tasks: tasks, Threads: 2, BoxThickness: thick, BlockX: 8, BlockY: 4})
			agree(t, "hybrid-bulk", res.Final, want)
		}
	}
}

func TestHybridOverlapMatchesReference(t *testing.T) {
	p := core.DefaultProblem(16, 3)
	want := reference(t, p)
	for _, tasks := range []int{1, 2, 4} {
		for _, thick := range []int{1, 2, 3} {
			res := run(t, core.HybridOverlap, p,
				core.Options{Tasks: tasks, Threads: 2, BoxThickness: thick, BlockX: 8, BlockY: 4})
			agree(t, "hybrid-overlap", res.Final, want)
		}
	}
}

func TestAllImplementationsConserveMass(t *testing.T) {
	p := core.DefaultProblem(12, 4)
	for _, k := range core.Kinds() {
		o := core.Options{Tasks: 2, Threads: 2, BlockX: 8, BlockY: 4, Verify: true}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		res := run(t, k, p, o)
		if res.MassDrift > 1e-9 {
			t.Fatalf("%v: mass drift %g", k, res.MassDrift)
		}
	}
}

func TestVerifyNormsSmall(t *testing.T) {
	// With a well-resolved Gaussian the numerical error after a few steps
	// is small; verify every implementation reports sane norms.
	p := core.DefaultProblem(24, 6)
	for _, k := range core.Kinds() {
		o := core.Options{Tasks: 3, Threads: 2, BlockX: 8, BlockY: 4, Verify: true}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		res := run(t, k, p, o)
		if res.Norms.L2 == 0 || math.IsNaN(res.Norms.L2) {
			t.Fatalf("%v: suspicious L2 %v", k, res.Norms.L2)
		}
		// The default Gaussian is ~2.4 points wide at this size, so the
		// second-order scheme leaves a few percent of peak after 6 steps.
		if res.Norms.LInf > 0.08 {
			t.Fatalf("%v: LInf %v too large", k, res.Norms.LInf)
		}
	}
}

func TestAnisotropicGrid(t *testing.T) {
	// Non-cubic grids exercise the decomposition and exchange index math.
	p := core.Problem{N: grid.Dims{X: 13, Y: 10, Z: 17}, C: grid.Velocity{X: 0.5, Y: 1, Z: 0.25}, Steps: 3}
	want := reference(t, p)
	for _, k := range []core.Kind{core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap, core.GPUBulkSync, core.GPUStreams} {
		res := run(t, k, p, core.Options{Tasks: 6, Threads: 2, BlockX: 8, BlockY: 4})
		agree(t, k.String(), res.Final, want)
	}
}

func TestNegativeVelocity(t *testing.T) {
	p := core.Problem{N: grid.Uniform(12), C: grid.Velocity{X: -1, Y: 0.5, Z: -0.25}, Steps: 4}
	want := reference(t, p)
	for _, k := range []core.Kind{core.BulkSync, core.GPUResident, core.HybridOverlap} {
		o := core.Options{Tasks: 4, Threads: 2, BlockX: 8, BlockY: 4}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		res := run(t, k, p, o)
		agree(t, k.String(), res.Final, want)
	}
}

func TestZeroStepsIsIdentity(t *testing.T) {
	p := core.DefaultProblem(10, 0)
	res := run(t, core.BulkSync, p, core.Options{Tasks: 2})
	initial := grid.NewField(p.N, 1)
	pn, _ := p.Normalize()
	grid.FillGaussian(initial, pn.Wave)
	agree(t, "zero-steps", res.Final, initial)
}

func TestErrorPaths(t *testing.T) {
	small := core.DefaultProblem(2, 1)
	if _, err := (singleTask{}).Run(small, core.Options{}); err == nil {
		t.Fatal("tiny grid accepted")
	}
	p := core.DefaultProblem(10, 1)
	if _, err := (bulkSync{}).Run(p, core.Options{Tasks: 100}); err == nil {
		t.Fatal("oversubscribed tasks accepted")
	}
	if _, err := (gpuResident{}).Run(p, core.Options{Tasks: 2}); err == nil {
		t.Fatal("multi-task GPU-resident accepted")
	}
	if _, err := (hybridRunner{}).Run(p, core.Options{Tasks: 1, BoxThickness: 5}); err == nil {
		t.Fatal("shell consuming whole domain accepted")
	}
	if _, err := (gpuResident{}).Run(p, core.Options{BlockX: 64, BlockY: 64, GPU: core.GPUC1060}); err == nil {
		t.Fatal("oversized block accepted")
	}
}

func TestSimulatedTimeRecorded(t *testing.T) {
	p := core.DefaultProblem(16, 2)
	for _, k := range []core.Kind{core.GPUResident, core.GPUBulkSync, core.GPUStreams, core.HybridOverlap} {
		o := core.Options{Tasks: 1, BlockX: 8, BlockY: 4}
		res := run(t, k, p, o)
		if res.Stats["sim.seconds"] <= 0 {
			t.Fatalf("%v: no simulated time recorded", k)
		}
	}
}

func TestStreamsOverlapBeatsBulkInSimTime(t *testing.T) {
	// The overlap implementations must show shorter *simulated* step time
	// than their bulk counterparts on the same configuration — the
	// functional analog of the paper's Figures 9 and 10.
	p := core.DefaultProblem(32, 3)
	o := core.Options{Tasks: 1, BlockX: 16, BlockY: 8}
	bulk := run(t, core.GPUBulkSync, p, o)
	streams := run(t, core.GPUStreams, p, o)
	if streams.Stats["sim.seconds"] >= bulk.Stats["sim.seconds"] {
		t.Fatalf("streams sim time %v not below bulk %v",
			streams.Stats["sim.seconds"], bulk.Stats["sim.seconds"])
	}
}

func TestHybridOverlapBeatsHybridBulkInSimTime(t *testing.T) {
	p := core.DefaultProblem(32, 3)
	o := core.Options{Tasks: 1, Threads: 2, BoxThickness: 1, BlockX: 16, BlockY: 8}
	bulk := run(t, core.HybridBulkSync, p, o)
	over := run(t, core.HybridOverlap, p, o)
	if over.Stats["sim.seconds"] >= bulk.Stats["sim.seconds"] {
		t.Fatalf("hybrid overlap sim time %v not below bulk %v",
			over.Stats["sim.seconds"], bulk.Stats["sim.seconds"])
	}
}

func TestDistributedNormsMatchGathered(t *testing.T) {
	// The distributed (Allreduce) norm computation must agree with the
	// norms computed on the gathered global field — §IV-A's verification
	// done the way a real MPI code does it.
	p := core.DefaultProblem(18, 4)
	for _, tasks := range []int{1, 3, 6} {
		res := run(t, core.BulkSync, p, core.Options{Tasks: tasks, Threads: 2, Verify: true})
		if math.Abs(res.Stats["dist.l2"]-res.Norms.L2) > 1e-12 {
			t.Fatalf("tasks=%d: distributed L2 %v vs gathered %v",
				tasks, res.Stats["dist.l2"], res.Norms.L2)
		}
		if math.Abs(res.Stats["dist.linf"]-res.Norms.LInf) > 1e-13 {
			t.Fatalf("tasks=%d: distributed LInf %v vs gathered %v",
				tasks, res.Stats["dist.linf"], res.Norms.LInf)
		}
	}
}

func TestMessageCountMatchesModel(t *testing.T) {
	// The functional bulk implementation must send exactly the message
	// count the performance model assumes: 6 per task per step (2 per
	// dimension phase) when no dimension is a self-neighbor.
	// The final gather is a fixed collective cost, so compare the delta
	// between two step counts.
	perStep := func(k core.Kind, o core.Options) float64 {
		t.Helper()
		a := run(t, k, core.DefaultProblem(16, 5), o)
		b := run(t, k, core.DefaultProblem(16, 10), o)
		return (b.Stats["mpi.messages"] - a.Stats["mpi.messages"]) / 5
	}
	if got := perStep(core.BulkSync, core.Options{Tasks: 8}); got != 6*8 { // P = 2x2x2
		t.Fatalf("bulk sends %v messages/step, model assumes %v", got, 6*8)
	}
	// The nonblocking variant exchanges the same volume.
	if got := perStep(core.NonblockingOverlap, core.Options{Tasks: 8}); got != 6*8 {
		t.Fatalf("nonblocking sends %v messages/step, want %v", got, 6*8)
	}
	// Wide halos divide the message count by W.
	if got := perStep(core.WideHaloExt, core.Options{Tasks: 8, HaloWidth: 5}); got != 6*8/5.0 {
		t.Fatalf("wide halo sends %v messages/step, want %v", got, 6*8/5.0)
	}
}

func TestTasksPerGPUSharingSlowsSimTime(t *testing.T) {
	// Two tasks sharing one device (the paper's tunable, §IV-F) must show
	// more simulated time than two tasks with a device each — the kernels
	// and DMA serialize on the shared engine — while the numerical result
	// stays identical.
	p := core.DefaultProblem(24, 3)
	own := run(t, core.GPUBulkSync, p,
		core.Options{Tasks: 2, BlockX: 8, BlockY: 4, GPU: core.GPUC1060})
	shared := run(t, core.GPUBulkSync, p,
		core.Options{Tasks: 2, BlockX: 8, BlockY: 4, GPU: core.GPUC1060, TasksPerGPU: 2})
	if shared.Stats["sim.seconds"] <= own.Stats["sim.seconds"] {
		t.Fatalf("shared device sim %.3g not above dedicated %.3g",
			shared.Stats["sim.seconds"], own.Stats["sim.seconds"])
	}
	if nm := grid.DiffNorms(shared.Final, own.Final); nm.LInf != 0 {
		t.Fatalf("device sharing changed the numerics: %+v", nm)
	}
}

func TestTasksPerGPUHybridAgrees(t *testing.T) {
	p := core.DefaultProblem(16, 3)
	want := reference(t, p)
	res := run(t, core.HybridOverlap, p,
		core.Options{Tasks: 4, Threads: 2, BlockX: 8, BlockY: 4, TasksPerGPU: 4})
	agree(t, "hybrid shared device", res.Final, want)
	if res.Stats["gpu.kernels"] == 0 {
		t.Fatal("no kernels recorded from the shared pool")
	}
}

// bitwiseEqual asserts two fields have identical interiors, bit for bit.
func bitwiseEqual(t *testing.T, name string, got, want *grid.Field) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil final field", name)
	}
	for k := 0; k < want.N.Z; k++ {
		for j := 0; j < want.N.Y; j++ {
			for i := 0; i < want.N.X; i++ {
				if g, w := got.At(i, j, k), want.At(i, j, k); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: (%d,%d,%d) = %v, single-task %v (diff %g)", name, i, j, k, g, w, g-w)
				}
			}
		}
	}
}

func TestAllRunnersBitwiseIdentical(t *testing.T) {
	// Every kernel evaluates each point in the same factored order, so
	// every runner, decomposition, tiling and CPU/GPU split must reproduce
	// the single-task interior exactly, not just to roundoff.
	shapes := []core.Problem{
		core.DefaultProblem(24, 6),
		{N: grid.Dims{X: 13, Y: 10, Z: 17}, C: grid.Velocity{X: 0.5, Y: -1, Z: 0.25}, Steps: 4},
	}
	configs := []struct {
		kind core.Kind
		o    core.Options
	}{
		{core.SingleTask, core.Options{Threads: 3}},
		{core.BulkSync, core.Options{Tasks: 4, Threads: 2}},
		{core.NonblockingOverlap, core.Options{Tasks: 3, Threads: 2}},
		{core.NonblockingOverlap, core.Options{Tasks: 5, Threads: 1}},
		{core.ThreadedOverlap, core.Options{Tasks: 2, Threads: 3}},
		{core.GPUResident, core.Options{BlockX: 5, BlockY: 3}},
		{core.GPUBulkSync, core.Options{Tasks: 3, BlockX: 8, BlockY: 4}},
		{core.GPUStreams, core.Options{Tasks: 2, BlockX: 8, BlockY: 4}},
		{core.HybridBulkSync, core.Options{Tasks: 2, Threads: 2, BoxThickness: 1, BlockX: 8, BlockY: 4}},
		{core.HybridOverlap, core.Options{Tasks: 1, Threads: 2, BoxThickness: 1, BlockX: 4, BlockY: 4}},
		{core.HybridOverlap, core.Options{Tasks: 3, Threads: 2, BoxThickness: 2, BlockX: 8, BlockY: 4}},
		{core.WideHaloExt, core.Options{Tasks: 4, Threads: 2, HaloWidth: 3}},
	}
	for _, p := range shapes {
		want := run(t, core.SingleTask, p, core.Options{Threads: 1}).Final
		for _, cfg := range configs {
			res := run(t, cfg.kind, p, cfg.o)
			bitwiseEqual(t, fmt.Sprintf("%v %v tasks=%d", cfg.kind, p.N, cfg.o.Tasks), res.Final, want)
		}
	}
}
