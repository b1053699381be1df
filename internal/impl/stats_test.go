package impl

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// statsPin is one runner's Result.Stats on DefaultProblem(12, 3) with two
// tasks for the distributed kinds. Stats is part of the service's result
// JSON, so a runner may not drop or rename a key, and its counters and
// simulated time may not move.
type statsPin struct {
	kind     core.Kind
	keys     string             // sorted key set of a plain run
	verify   string             // keys Verify adds
	trace    string             // keys TraceOverlap adds
	plain    map[string]float64 // exact values of a plain run
	verified map[string]float64 // exact values Verify changes
}

const (
	cpuMPIKeys    = "mpi.bytes mpi.messages mpi.msgs/step mpi.values tasks threads"
	gpuMPIKeys    = "blockx blocky gpu.kernels mpi.bytes mpi.messages pcie.bytes sim.gf sim.seconds tasks"
	hybridKeys    = gpuMPIKeys + " thickness threads"
	bulkTraceKeys = "trace.busy.gpu.interior trace.busy.pcie trace.busy.pcie.d2h trace.busy.pcie.h2d " +
		"trace.devices trace.overlap.max.sec trace.overlap.min.sec trace.overlap.sec trace.spans"
	streamsTraceKeys = "trace.busy.gpu.boundary trace.busy.gpu.interior trace.busy.pcie trace.busy.pcie.d2h " +
		"trace.busy.pcie.h2d trace.devices trace.overlap.gpu.boundary trace.overlap.imbalance " +
		"trace.overlap.max.sec trace.overlap.min.sec trace.overlap.pcie.d2h trace.overlap.pcie.h2d " +
		"trace.overlap.sec trace.spans"
	hybridTraceKeys = "trace.busy.gpu.boundary trace.busy.gpu.interior trace.busy.pcie trace.busy.pcie.d2h " +
		"trace.busy.pcie.h2d trace.devices trace.overlap.gpu.boundary trace.overlap.imbalance " +
		"trace.overlap.max.sec trace.overlap.min.sec trace.overlap.pcie.h2d trace.overlap.sec trace.spans"
)

var (
	cpuMPIPlain = map[string]float64{"mpi.messages": 13, "mpi.values": 3216, "mpi.bytes": 25728}
	// The distributed norms' two Allreduces add four messages.
	cpuMPIVerified = map[string]float64{"mpi.messages": 17, "mpi.values": 3220, "mpi.bytes": 25760}
)

var statsPins = []statsPin{
	{kind: core.SingleTask, keys: "threads"},
	{kind: core.BulkSync, keys: cpuMPIKeys, verify: "dist.l2 dist.linf", plain: cpuMPIPlain, verified: cpuMPIVerified},
	{kind: core.NonblockingOverlap, keys: cpuMPIKeys, verify: "dist.l2 dist.linf", plain: cpuMPIPlain, verified: cpuMPIVerified},
	{kind: core.ThreadedOverlap, keys: cpuMPIKeys, verify: "dist.l2 dist.linf", plain: cpuMPIPlain, verified: cpuMPIVerified},
	{kind: core.GPUResident, keys: "blockx blocky gpu.kernels sim.gf sim.seconds",
		trace: "trace.devices trace.overlap.max.sec trace.overlap.min.sec trace.overlap.sec trace.spans",
		plain: map[string]float64{"gpu.kernels": 3, "sim.seconds": 0.00029865828995728164}},
	{kind: core.GPUBulkSync, keys: gpuMPIKeys, trace: bulkTraceKeys,
		plain: map[string]float64{"mpi.messages": 13, "mpi.bytes": 25728, "gpu.kernels": 18,
			"pcie.bytes": 106240, "sim.seconds": 0.0002264139941281553}},
	{kind: core.GPUStreams, keys: gpuMPIKeys, trace: streamsTraceKeys,
		plain: map[string]float64{"mpi.messages": 13, "mpi.bytes": 25728, "gpu.kernels": 18,
			"pcie.bytes": 106240, "sim.seconds": 0.00012852789747572815}},
	{kind: core.HybridBulkSync, keys: hybridKeys, trace: bulkTraceKeys,
		plain: map[string]float64{"mpi.messages": 13, "mpi.bytes": 25728, "gpu.kernels": 24,
			"pcie.bytes": 62976, "sim.seconds": 0.00020729334580194176}},
	{kind: core.HybridOverlap, keys: hybridKeys, trace: hybridTraceKeys,
		plain: map[string]float64{"mpi.messages": 13, "mpi.bytes": 25728, "gpu.kernels": 18,
			"pcie.bytes": 62976, "sim.seconds": 0.00012507189747572816}},
	{kind: core.WideHaloExt, keys: "halo.width mpi.messages mpi.values tasks threads",
		plain: map[string]float64{"mpi.messages": 9, "mpi.values": 4960}},
}

// worldCounted lists the keys a runner may report beyond its pinned set:
// counters its world keeps anyway (every MPI world counts values as well
// as messages, every device counts PCIe bytes).
func worldCounted(k core.Kind) map[string]bool {
	ok := map[string]bool{}
	if k.UsesMPI() {
		ok["mpi.values"], ok["mpi.bytes"], ok["mpi.msgs/step"] = true, true, true
	}
	if k.UsesGPU() {
		ok["pcie.bytes"] = true
	}
	return ok
}

func TestResultStatsPinned(t *testing.T) {
	p := core.DefaultProblem(12, 3)
	if len(statsPins) != len(core.Kinds())+1 {
		t.Fatalf("%d pins for %d runners", len(statsPins), len(core.Kinds())+1)
	}
	for _, pin := range statsPins {
		for _, verify := range []bool{false, true} {
			for _, trace := range []bool{false, true} {
				o := core.Options{Tasks: 2, Threads: 2, BlockX: 8, BlockY: 4, Verify: verify, TraceOverlap: trace}
				if !pin.kind.UsesMPI() {
					o.Tasks = 1
				}
				stats := run(t, pin.kind, p, o).Stats

				want := strings.Fields(pin.keys)
				if verify {
					want = append(want, strings.Fields(pin.verify)...)
				}
				if trace {
					want = append(want, strings.Fields(pin.trace)...)
				}
				extra := worldCounted(pin.kind)
				for _, key := range want {
					if _, ok := stats[key]; !ok {
						t.Errorf("%v verify=%v trace=%v: key %q dropped", pin.kind, verify, trace, key)
					}
				}
				var got []string
				for key := range stats {
					got = append(got, key)
				}
				sort.Strings(got)
				for _, key := range got {
					if !slices.Contains(want, key) && !extra[key] {
						t.Errorf("%v verify=%v trace=%v: unexpected key %q", pin.kind, verify, trace, key)
					}
				}

				for key, v := range pin.plain {
					if w, ok := pin.verified[key]; ok && verify {
						v = w
					}
					if stats[key] != v {
						t.Errorf("%v verify=%v trace=%v: %s = %v, pinned %v", pin.kind, verify, trace, key, stats[key], v)
					}
				}
			}
		}
	}
}
