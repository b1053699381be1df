package stencil

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func testVelocity() grid.Velocity { return grid.Velocity{X: 1, Y: 0.5, Z: 0.25} }

func testOp(f *grid.Field) *Op {
	c := testVelocity()
	return NewOp(TableI(c, MaxStableNu(c)), f)
}

func randomField(n grid.Dims) *grid.Field {
	f := grid.NewField(n, 1)
	// Deterministic pseudo-random fill.
	s := uint64(12345)
	f.Fill(func(i, j, k int) float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / float64(1<<53)
	})
	return f
}

func TestApplyMatchesPoint(t *testing.T) {
	n := grid.Dims{X: 6, Y: 5, Z: 4}
	src := randomField(n)
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := testOp(src)
	op.Apply(src, dst, Whole(n))
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				want := op.Point(src, i, j, k)
				if got := dst.At(i, j, k); got != want {
					t.Fatalf("Apply(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestApplyRowsMatchesApply(t *testing.T) {
	n := grid.Dims{X: 7, Y: 6, Z: 5}
	src := randomField(n)
	src.CopyPeriodicHalos()
	op := testOp(src)
	want := grid.NewField(n, 1)
	op.Apply(src, want, Whole(n))

	got := grid.NewField(n, 1)
	sub := Whole(n)
	rows := Rows(sub)
	// Apply in awkward chunks to exercise the row decoding.
	for lo := 0; lo < rows; lo += 4 {
		hi := lo + 4
		if hi > rows {
			hi = rows
		}
		op.ApplyRows(src, got, sub, lo, hi)
	}
	if nm := grid.DiffNorms(got, want); nm.LInf != 0 {
		t.Fatalf("ApplyRows differs from Apply: %+v", nm)
	}
}

func TestApplySubdomainOnly(t *testing.T) {
	n := grid.Dims{X: 6, Y: 6, Z: 6}
	src := randomField(n)
	src.CopyPeriodicHalos()
	op := testOp(src)
	dst := grid.NewField(n, 1)
	sub := grid.Subdomain{Lo: grid.Dims{X: 1, Y: 2, Z: 3}, Size: grid.Dims{X: 3, Y: 2, Z: 2}}
	op.Apply(src, dst, sub)
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				want := 0.0
				if sub.Contains(i, j, k) {
					want = op.Point(src, i, j, k)
				}
				if got := dst.At(i, j, k); got != want {
					t.Fatalf("(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestConstantFieldFixedPoint(t *testing.T) {
	n := grid.Uniform(6)
	src := grid.NewField(n, 1)
	src.Fill(func(i, j, k int) float64 { return 3.25 })
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := testOp(src)
	op.Apply(src, dst, Whole(n))
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				if d := math.Abs(dst.At(i, j, k) - 3.25); d > 1e-13 {
					t.Fatalf("constant field moved by %v at (%d,%d,%d)", d, i, j, k)
				}
			}
		}
	}
}

func TestPureShift(t *testing.T) {
	// With c = (1,1,1) and ν = 1 every Courant number is 1, so one step is
	// an exact one-point shift in each dimension.
	n := grid.Uniform(8)
	c := grid.Velocity{X: 1, Y: 1, Z: 1}
	op := func(f *grid.Field) *Op { return NewOp(TableI(c, 1), f) }
	src := randomField(n)
	ref := src.Clone()
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op(src).Apply(src, dst, Whole(n))
	w := func(i, m int) int { return ((i % m) + m) % m }
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				want := ref.At(w(i-1, n.X), w(j-1, n.Y), w(k-1, n.Z))
				if d := math.Abs(dst.At(i, j, k) - want); d > 1e-14 {
					t.Fatalf("shift error %v at (%d,%d,%d)", d, i, j, k)
				}
			}
		}
	}
}

func TestMassConservation(t *testing.T) {
	n := grid.Uniform(10)
	src := grid.NewField(n, 1)
	grid.FillGaussian(src, grid.DefaultGaussian(n))
	dst := grid.NewField(n, 1)
	op := testOp(src)
	mass0 := src.InteriorSum()
	for s := 0; s < 20; s++ {
		src.CopyPeriodicHalos()
		op.Apply(src, dst, Whole(n))
		src.Swap(dst)
	}
	if d := math.Abs(src.InteriorSum() - mass0); d > 1e-10 {
		t.Fatalf("mass drifted by %v over 20 steps", d)
	}
}

func TestSecondOrderConvergence(t *testing.T) {
	// Advect a Gaussian over a fixed physical time on grids of n and 2n
	// points; the paper's method is O(Δ²) for fixed simulated time, so the
	// L2 error should fall by about 4x when the resolution doubles.
	c := grid.Velocity{X: 0.7, Y: 0.4, Z: 0.2}
	errAt := func(npts, steps int) float64 {
		n := grid.Uniform(npts)
		nu := MaxStableNu(c)
		g := grid.Gaussian{
			Center: [3]float64{float64(npts) / 2, float64(npts) / 2, float64(npts) / 2},
			Sigma:  float64(npts) / 8,
		}
		f := grid.NewField(n, 1)
		grid.FillGaussian(f, g)
		tmp := grid.NewField(n, 1)
		op := NewOp(TableI(c, nu), f)
		for s := 0; s < steps; s++ {
			f.CopyPeriodicHalos()
			op.Apply(f, tmp, Whole(n))
			f.Swap(tmp)
		}
		tFinal := nu * float64(steps)
		nm := grid.NormsAgainst(f, func(i, j, k int) float64 {
			return g.Analytic(n, c, tFinal, i, j, k)
		})
		return nm.L2
	}
	// Fixed simulated time: steps scale with resolution (δ halves, Δ = νδ
	// halves in grid units when ν is fixed... here ν is dimensionless so
	// doubling points and steps holds physical time in grid fractions).
	e1 := errAt(16, 8)
	e2 := errAt(32, 16)
	ratio := e1 / e2
	if ratio < 3.0 {
		t.Fatalf("convergence ratio %.2f < 3.0 (e1=%g e2=%g); not second order", ratio, e1, e2)
	}
}

func TestInteriorAndBoundaryTile(t *testing.T) {
	// Thin domains (a hybrid GPU block one or two points thick) included:
	// their boundary slabs must still tile the domain without overlap and
	// with no negative extent, or buffers sized by slab volume come up short.
	for _, n := range []grid.Dims{{X: 7, Y: 6, Z: 5}, {X: 7, Y: 6, Z: 1}, {X: 1, Y: 6, Z: 5}, {X: 7, Y: 2, Z: 5}, {X: 2, Y: 1, Z: 3}} {
		in := Interior(n)
		slabs := BoundarySlabs(n)
		seen := make(map[[3]int]int)
		vol := 0
		mark := func(s grid.Subdomain) {
			hi := s.Hi()
			for k := s.Lo.Z; k < hi.Z; k++ {
				for j := s.Lo.Y; j < hi.Y; j++ {
					for i := s.Lo.X; i < hi.X; i++ {
						seen[[3]int{i, j, k}]++
					}
				}
			}
		}
		if !in.Empty() {
			mark(in)
			vol += in.Volume()
		}
		for _, s := range slabs {
			if s.Size.X < 0 || s.Size.Y < 0 || s.Size.Z < 0 {
				t.Fatalf("%v: slab %v has a negative extent", n, s)
			}
			mark(s)
			vol += s.Volume()
		}
		if len(seen) != n.Volume() || vol != n.Volume() {
			t.Fatalf("%v: covered %d points with volume %d, domain has %d", n, len(seen), vol, n.Volume())
		}
		for p, c := range seen {
			if c != 1 {
				t.Fatalf("%v: point %v covered %d times", n, p, c)
			}
		}
	}
}

func TestInteriorThirdsTileInterior(t *testing.T) {
	for _, nz := range []int{5, 6, 7, 8} {
		n := grid.Dims{X: 6, Y: 6, Z: nz}
		thirds := InteriorThirds(n)
		in := Interior(n)
		vol := 0
		prevHi := in.Lo.Z
		for _, s := range thirds {
			if s.Lo.Z != prevHi {
				t.Fatalf("nz=%d: thirds not contiguous", nz)
			}
			prevHi = s.Hi().Z
			vol += s.Volume()
			if s.Lo.X != in.Lo.X || s.Size.X != in.Size.X || s.Lo.Y != in.Lo.Y || s.Size.Y != in.Size.Y {
				t.Fatalf("nz=%d: third has wrong xy extent", nz)
			}
		}
		if prevHi != in.Hi().Z {
			t.Fatalf("nz=%d: thirds end at %d, want %d", nz, prevHi, in.Hi().Z)
		}
		if vol != in.Volume() {
			t.Fatalf("nz=%d: thirds volume %d, want %d", nz, vol, in.Volume())
		}
	}
}

func TestApplyEmptySubdomainNoop(t *testing.T) {
	n := grid.Uniform(4)
	src := randomField(n)
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := testOp(src)
	op.Apply(src, dst, grid.Subdomain{Size: grid.Dims{X: 0, Y: 4, Z: 4}})
	if dst.InteriorSum() != 0 {
		t.Fatal("empty subdomain wrote data")
	}
}

func TestFlopsPerPoint(t *testing.T) {
	// 27 multiplications and 26 additions (paper §II).
	if FlopsPerPoint != 27+26 {
		t.Fatalf("FlopsPerPoint = %d", FlopsPerPoint)
	}
}
