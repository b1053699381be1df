package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// referenceApply is the paper's kernel transcribed literally: for every
// point of sub, the 27-point, 53-flop sum of Eq. 2 over the Table I
// coefficients. It is the oracle the factored production kernel is
// checked against and the baseline its speed is measured against.
func referenceApply(c *Coeffs, src, dst *grid.Field, sub grid.Subdomain) {
	var offs [27]int
	var w [27]float64
	_, sy, sz := src.Strides()
	n := 0
	for k := -1; k <= 1; k++ {
		for j := -1; j <= 1; j++ {
			for i := -1; i <= 1; i++ {
				offs[n] = i + j*sy + k*sz
				w[n] = c.At(i, j, k)
				n++
			}
		}
	}
	s, d := src.Data(), dst.Data()
	hi := sub.Hi()
	for k := sub.Lo.Z; k < hi.Z; k++ {
		for j := sub.Lo.Y; j < hi.Y; j++ {
			out := dst.Idx(sub.Lo.X, j, k)
			referenceRow(s, d[out:out+sub.Size.X], src.Idx(sub.Lo.X, j, k), &offs, &w)
		}
	}
}

// referenceRow computes one x-row of the 27-point sum, unrolled so the
// weights stay in registers across the row.
func referenceRow(s, dst []float64, base int, offs *[27]int, w *[27]float64) {
	for i := range dst {
		p := base + i
		sum := w[0] * s[p+offs[0]]
		sum += w[1] * s[p+offs[1]]
		sum += w[2] * s[p+offs[2]]
		sum += w[3] * s[p+offs[3]]
		sum += w[4] * s[p+offs[4]]
		sum += w[5] * s[p+offs[5]]
		sum += w[6] * s[p+offs[6]]
		sum += w[7] * s[p+offs[7]]
		sum += w[8] * s[p+offs[8]]
		sum += w[9] * s[p+offs[9]]
		sum += w[10] * s[p+offs[10]]
		sum += w[11] * s[p+offs[11]]
		sum += w[12] * s[p+offs[12]]
		sum += w[13] * s[p+offs[13]]
		sum += w[14] * s[p+offs[14]]
		sum += w[15] * s[p+offs[15]]
		sum += w[16] * s[p+offs[16]]
		sum += w[17] * s[p+offs[17]]
		sum += w[18] * s[p+offs[18]]
		sum += w[19] * s[p+offs[19]]
		sum += w[20] * s[p+offs[20]]
		sum += w[21] * s[p+offs[21]]
		sum += w[22] * s[p+offs[22]]
		sum += w[23] * s[p+offs[23]]
		sum += w[24] * s[p+offs[24]]
		sum += w[25] * s[p+offs[25]]
		sum += w[26] * s[p+offs[26]]
		dst[i] = sum
	}
}

func TestFactoredMatchesReference(t *testing.T) {
	// The factored kernel must reproduce the literal 27-point Table I sum
	// to a few ulps of the field scale, for any stable velocity and ν, on
	// whole domains and on subdomains one point thick in each dimension.
	rng := rand.New(rand.NewSource(7))
	n := grid.Dims{X: 9, Y: 7, Z: 8}
	subs := []grid.Subdomain{
		Whole(n),
		Interior(n),
		{Lo: grid.Dims{X: 4, Y: 0, Z: 0}, Size: grid.Dims{X: 1, Y: n.Y, Z: n.Z}},
		{Lo: grid.Dims{X: 0, Y: 3, Z: 0}, Size: grid.Dims{X: n.X, Y: 1, Z: n.Z}},
		{Lo: grid.Dims{X: 0, Y: 0, Z: 5}, Size: grid.Dims{X: n.X, Y: n.Y, Z: 1}},
		{Lo: grid.Dims{X: 2, Y: 6, Z: 7}, Size: grid.Dims{X: 1, Y: 1, Z: 1}},
	}
	src := randomField(n)
	src.CopyPeriodicHalos()
	var worst float64
	for trial := 0; trial < 100; trial++ {
		c := grid.Velocity{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1}
		nu := rng.Float64() * MaxStableNu(c)
		coeffs := TableI(c, nu)
		op := NewOp(coeffs, src)
		for _, sub := range subs {
			got, want := grid.NewField(n, 1), grid.NewField(n, 1)
			op.Apply(src, got, sub)
			referenceApply(coeffs, src, want, sub)
			// src lies in [0, 1), so the field scale is 1.
			if d := grid.DiffNorms(got, want).LInf; d > worst {
				worst = d
			}
			if worst > 1e-14 {
				t.Fatalf("c=%+v nu=%v sub=%+v: factored kernel off the 27-point sum by %g", c, nu, sub, worst)
			}
		}
	}
	t.Logf("worst deviation from the 27-point sum: %g", worst)
}

func TestApplyRowsAllocatesNothing(t *testing.T) {
	n := grid.Dims{X: 300, Y: 5, Z: 4} // wider than one x chunk
	src := randomField(n)
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := testOp(src)
	sub := Whole(n)
	if a := testing.AllocsPerRun(20, func() { op.ApplyRows(src, dst, sub, 3, Rows(sub)-2) }); a != 0 {
		t.Fatalf("ApplyRows allocates %v times per call", a)
	}
}

func TestApplyRowsChunkedRowsMatchPoint(t *testing.T) {
	// Rows wider than one x chunk and row ranges that start and stop
	// mid-plane take every edge of the rolling sweep.
	n := grid.Dims{X: rowChunk + 37, Y: 4, Z: 3}
	src := randomField(n)
	src.CopyPeriodicHalos()
	op := testOp(src)
	sub := Whole(n)
	got := grid.NewField(n, 1)
	for _, r := range [][2]int{{0, 1}, {1, 6}, {6, 7}, {7, Rows(sub)}} {
		op.ApplyRows(src, got, sub, r[0], r[1])
	}
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				if g, w := got.At(i, j, k), op.Point(src, i, j, k); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("(%d,%d,%d) = %v, Point %v", i, j, k, g, w)
				}
			}
		}
	}
}

func TestConstantsRoundTrip(t *testing.T) {
	c := TableI(grid.Velocity{X: 0.3, Y: -0.2, Z: 0.1}, 1.5)
	v := c.Constants()
	if len(v) != ConstantWords {
		t.Fatalf("%d constant words, want %d", len(v), ConstantWords)
	}
	back := FromConstants(v)
	if *back != *c {
		t.Fatalf("round trip changed the coefficients: %+v vs %+v", back, c)
	}
}

// BenchmarkKernel64 runs the production and reference kernels on the same
// 64³ field. ci.sh gates the ratio of their medians, which host-wide
// noise affects far less than either absolute time.
func BenchmarkKernel64(b *testing.B) {
	n := grid.Uniform(64)
	c := grid.Velocity{X: 1, Y: 0.5, Z: 0.25}
	coeffs := TableI(c, MaxStableNu(c))
	src := grid.NewField(n, 1)
	grid.FillGaussian(src, grid.DefaultGaussian(n))
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := NewOp(coeffs, src)
	for _, k := range []struct {
		name  string
		apply func()
	}{
		{"factored", func() { op.Apply(src, dst, Whole(n)) }},
		{"reference", func() { referenceApply(coeffs, src, dst, Whole(n)) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.apply()
			}
			b.ReportMetric(float64(n.Volume())*FlopsPerPoint*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF")
		})
	}
}

func ExampleCombine() {
	// With Courant number 1 the one-dimensional stencil is a pure shift:
	// the combine returns the upstream value.
	qm, q0, qp := LW1D(1)
	fmt.Println(Combine(qm, q0, qp, 2, 3, 5))
	// Output: 2
}
