package loc

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPaperFiguresMatchText(t *testing.T) {
	single, exact := PaperLoC(core.SingleTask)
	if single != 215 || !exact {
		t.Fatalf("single task = %d (exact=%v), want 215 stated", single, exact)
	}
	full, exact := PaperLoC(core.HybridOverlap)
	if full != 860 || !exact {
		t.Fatalf("full overlap = %d (exact=%v), want 860 stated", full, exact)
	}
	// "exactly four times as many lines (860 versus 215)"
	if full != 4*single {
		t.Fatalf("full/single = %d/%d, want exactly 4x", full, single)
	}
}

func TestPaperMPIGrowthBand(t *testing.T) {
	// "MPI parallelization adds 57-73% more lines, with the nonblocking
	// overlap adding the most."
	single, _ := PaperLoC(core.SingleTask)
	for _, k := range []core.Kind{core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap} {
		v, _ := PaperLoC(k)
		growth := float64(v-single) / float64(single)
		if growth < 0.55 || growth > 0.75 {
			t.Fatalf("%v growth %.2f outside the 57-73%% band", k, growth)
		}
	}
	nb, _ := PaperLoC(core.NonblockingOverlap)
	bulk, _ := PaperLoC(core.BulkSync)
	threaded, _ := PaperLoC(core.ThreadedOverlap)
	if nb <= bulk || nb <= threaded {
		t.Fatal("nonblocking must add the most lines")
	}
}

func TestPaperGPUGrowth(t *testing.T) {
	// "Targeting a single GPU ... uses just 6% more lines ... adding MPI
	// parallelism to the GPU computation almost triples the number of
	// lines."
	single, _ := PaperLoC(core.SingleTask)
	gpu, _ := PaperLoC(core.GPUResident)
	if g := float64(gpu-single) / float64(single); g < 0.05 || g > 0.07 {
		t.Fatalf("GPU growth %.3f, want ~6%%", g)
	}
	gpuMPI, _ := PaperLoC(core.GPUBulkSync)
	if r := float64(gpuMPI) / float64(gpu); r < 2.5 || r > 3.1 {
		t.Fatalf("GPU MPI ratio %.2f, want almost 3x", r)
	}
}

func TestPaperMonotoneComplexity(t *testing.T) {
	// Within each family, more overlap machinery means more lines.
	pairs := [][2]core.Kind{
		{core.SingleTask, core.BulkSync},
		{core.BulkSync, core.NonblockingOverlap},
		{core.GPUResident, core.GPUBulkSync},
		{core.GPUBulkSync, core.GPUStreams},
		{core.GPUStreams, core.HybridBulkSync},
		{core.HybridBulkSync, core.HybridOverlap},
	}
	for _, p := range pairs {
		a, _ := PaperLoC(p[0])
		b, _ := PaperLoC(p[1])
		if b <= a {
			t.Fatalf("%v (%d) should exceed %v (%d)", p[1], b, p[0], a)
		}
	}
}

func TestCountReader(t *testing.T) {
	src := `// a comment
package x

func f() int { // trailing comments do not make a line a comment
	return 1
}
`
	sc := bufio.NewScanner(strings.NewReader(src))
	if n := CountReader(sc, "//"); n != 4 {
		t.Fatalf("counted %d, want 4", n)
	}
}

func TestCountReaderFortranStyle(t *testing.T) {
	src := `! comment
program advect
  u = 0
!
end program
`
	sc := bufio.NewScanner(strings.NewReader(src))
	if n := CountReader(sc, "!"); n != 3 {
		t.Fatalf("counted %d, want 3", n)
	}
}

func TestOursLoCCounts(t *testing.T) {
	if _, err := implDir(); err != nil {
		t.Skipf("source tree not available: %v", err)
	}
	for _, k := range core.Kinds() {
		n, err := OursLoC(k)
		if err != nil {
			t.Fatal(err)
		}
		if n < 50 {
			t.Fatalf("%v: suspiciously few lines (%d)", k, n)
		}
	}
	// Relative ordering must mirror the paper's qualitative finding: the
	// overlap implementations cost more code than their bulk parents.
	single, _ := OursLoC(core.SingleTask)
	bulk, _ := OursLoC(core.BulkSync)
	nb, _ := OursLoC(core.NonblockingOverlap)
	hybrid, _ := OursLoC(core.HybridOverlap)
	if !(single < bulk && bulk < nb && bulk < hybrid) {
		t.Fatalf("LoC ordering broken: single=%d bulk=%d nonblocking=%d hybrid=%d",
			single, bulk, nb, hybrid)
	}
}

func TestFigure2Rows(t *testing.T) {
	rows, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if r.Paper <= 0 {
			t.Fatalf("%v: no paper count", r.Kind)
		}
	}
}

func TestCountFileMissing(t *testing.T) {
	if _, err := CountFile("/nonexistent/file.go"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestEveryImplFileCounted fails when an implementation source is added,
// renamed or removed without updating the Figure 2 file map: every
// non-test Go file in internal/impl must belong to some implementation or
// be a listed extension, and every mapped file must exist.
func TestEveryImplFileCounted(t *testing.T) {
	dir, err := implDir()
	if err != nil {
		t.Skipf("source tree not available: %v", err)
	}
	mapped := map[string]bool{}
	for _, f := range extensionFiles {
		mapped[f] = true
	}
	for _, files := range implFiles {
		for _, f := range files {
			mapped[f] = true
		}
	}
	for f := range mapped {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("mapped file %s: %v", f, err)
		}
	}
	srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if f := filepath.Base(src); !strings.HasSuffix(f, "_test.go") && !mapped[f] {
			t.Errorf("%s is in no implementation's file list", f)
		}
	}
}

func TestFigure2FailsOnMissingFile(t *testing.T) {
	if _, err := implDir(); err != nil {
		t.Skipf("source tree not available: %v", err)
	}
	saved := implFiles[core.SingleTask]
	implFiles[core.SingleTask] = append(saved[:len(saved):len(saved)], "no_such_file.go")
	defer func() { implFiles[core.SingleTask] = saved }()
	if _, err := Figure2(); err == nil {
		t.Fatal("Figure2 hid a missing implementation file")
	}
}
