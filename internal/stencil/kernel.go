package stencil

import "repro/internal/grid"

// KernelVersion identifies the arithmetic order of the production kernel.
// Results change at roundoff whenever it changes, so content-addressed
// keys (core.Fingerprint) fold it in. Version 1 was the literal 27-point
// sum; version 2 is the factored z, y, x sweep.
const KernelVersion = 2

// Op is a prepared stencil application bound to a coefficient set and a
// field shape: the three one-dimensional factor triples and the z stride
// of fields shaped like the one it was built for. Preparing once
// per run mirrors the paper's constant coefficients ("the values of a_ijk
// are the same for every grid point and time step"). An Op is immutable,
// so concurrent ApplyRows calls may share it.
type Op struct {
	c          *Coeffs
	sz         int
	qx, qy, qz [3]float64
}

// NewOp prepares an Op for fields shaped like f.
func NewOp(c *Coeffs, f *grid.Field) *Op {
	_, _, sz := f.Strides()
	op := &Op{c: c, sz: sz}
	op.qx, op.qy, op.qz = c.Factors()
	return op
}

// Coeffs returns the coefficient set the Op was prepared with.
func (op *Op) Coeffs() *Coeffs { return op.c }

// Combine is the one-dimensional Lax–Wendroff combine q-1·a + q0·b + q+1·c,
// the only arithmetic the production kernels use to advance the field.
// Every point goes through z, then y, then x combines in this fixed
// order, so every kernel, tiling and decomposition yields the same bits.
// The explicit conversions forbid fused multiply-adds, which would let
// the compiler round differently at different call sites.
func Combine(qm, q0, qp, a, b, c float64) float64 {
	return float64(qm*a) + float64(q0*b) + float64(qp*c)
}

// Point computes Eq. 2 for the single point (i, j, k) of src and returns
// it (not stored), in the same factored order as Apply, so the two agree
// bitwise.
func (op *Op) Point(src *grid.Field, i, j, k int) float64 {
	d := src.Data()
	qy, qz := op.qy, op.qz
	var y [3]float64
	for di := -1; di <= 1; di++ {
		var z [3]float64
		for dj := -1; dj <= 1; dj++ {
			p := src.Idx(i+di, j+dj, k)
			z[dj+1] = Combine(qz[0], qz[1], qz[2], d[p-op.sz], d[p], d[p+op.sz])
		}
		y[di+1] = Combine(qy[0], qy[1], qy[2], z[0], z[1], z[2])
	}
	return Combine(op.qx[0], op.qx[1], op.qx[2], y[0], y[1], y[2])
}

// Apply computes Eq. 2 for every point of sub (local coordinates; the
// stencil of every point must lie within src's storage) reading src and
// writing dst. src and dst must have identical shape and must not alias.
func (op *Op) Apply(src, dst *grid.Field, sub grid.Subdomain) {
	op.ApplyRows(src, dst, sub, 0, Rows(sub))
}

// Rows returns the number of x-rows in sub, the iteration count for
// ApplyRows. Parallel callers collapse the outer (k, j) loops into this
// flat row index, matching the paper's collapse(2) OpenMP strategy.
func Rows(sub grid.Subdomain) int { return sub.Size.Y * sub.Size.Z }

// ApplyRows computes Eq. 2 for the x-rows of sub with flattened (k, j)
// indices in [lo, hi). Row r corresponds to k = sub.Lo.Z + r/sub.Size.Y and
// j = sub.Lo.Y + r%sub.Size.Y. Disjoint row ranges touch disjoint dst
// memory, so concurrent calls need no locking. The range is swept one
// k-plane run of consecutive rows at a time, rolling z sums across j.
func (op *Op) ApplyRows(src, dst *grid.Field, sub grid.Subdomain, lo, hi int) {
	if sub.Empty() {
		return
	}
	ny := sub.Size.Y
	for r := lo; r < hi; {
		kk, j0 := r/ny, r%ny
		j1 := ny
		if rest := hi - (r - j0); rest < ny {
			j1 = rest
		}
		op.sweepPlane(src, dst, sub, sub.Lo.Z+kk, sub.Lo.Y+j0, sub.Lo.Y+j1)
		r += j1 - j0
	}
}

// rowChunk bounds the x extent swept at once, so the rolling z-sum rows
// fit in a fixed stack buffer and ApplyRows never allocates.
const rowChunk = 256

// sweepPlane computes rows j ∈ [j0, j1) of plane k over sub's x range.
// For each x chunk it keeps the z sums Z(x, j-1), Z(x, j), Z(x, j+1) of
// the chunk (with a one-point x margin) in three rotating rows: each step
// in j computes one new z-sum row, then one y combine per column and one
// x combine per point.
func (op *Op) sweepPlane(src, dst *grid.Field, sub grid.Subdomain, k, j0, j1 int) {
	s, d := src.Data(), dst.Data()
	qx, qy, qz := op.qx, op.qy, op.qz
	sz := op.sz
	var buf [3][rowChunk + 2]float64
	for x0 := sub.Lo.X; x0 < sub.Lo.X+sub.Size.X; x0 += rowChunk {
		w := min(rowChunk, sub.Lo.X+sub.Size.X-x0)
		zm, zc, zp := buf[0][:w+2], buf[1][:w+2], buf[2][:w+2]
		zSums(zm, s, src.Idx(x0-1, j0-1, k), sz, &qz)
		zSums(zc, s, src.Idx(x0-1, j0, k), sz, &qz)
		for j := j0; j < j1; j++ {
			zSums(zp, s, src.Idx(x0-1, j+1, k), sz, &qz)
			out := dst.Idx(x0, j, k)
			xyRow(d[out:out+w], zm, zc, zp, &qx, &qy)
			zm, zc, zp = zc, zp, zm
		}
	}
}

// zSums fills z[i] with the z combine of the source column at base+i.
func zSums(z, s []float64, base, sz int, q *[3]float64) {
	n := len(z)
	lo, mid, hi := s[base-sz:base-sz+n], s[base:base+n], s[base+sz:base+sz+n]
	qm, q0, qp := q[0], q[1], q[2]
	for i := range z {
		z[i] = Combine(qm, q0, qp, lo[i], mid[i], hi[i])
	}
}

// xyRow writes one output row: out[i] combines in x the y combines of
// the z-sum rows at columns i, i+1, i+2 (the rows carry a one-point
// margin on each side), rolling the y combines along the row.
func xyRow(out, zm, zc, zp []float64, qx, qy *[3]float64) {
	n := len(out)
	zm, zc, zp = zm[:n+2], zc[:n+2], zp[:n+2]
	xm, x0, xp := qx[0], qx[1], qx[2]
	ym, y0, yp := qy[0], qy[1], qy[2]
	a := Combine(ym, y0, yp, zm[0], zc[0], zp[0])
	b := Combine(ym, y0, yp, zm[1], zc[1], zp[1])
	for i := range out {
		c := Combine(ym, y0, yp, zm[i+2], zc[i+2], zp[i+2])
		out[i] = Combine(xm, x0, xp, a, b, c)
		a, b = b, c
	}
}

// Interior returns the subdomain of points of an n-point local domain whose
// stencil touches no halo point: the domain shrunk by the stencil halo
// width (1) on every side. If the domain is too thin the result is empty.
func Interior(n grid.Dims) grid.Subdomain {
	return grid.Subdomain{
		Lo:   grid.Dims{X: 1, Y: 1, Z: 1},
		Size: grid.Dims{X: n.X - 2, Y: n.Y - 2, Z: n.Z - 2},
	}
}

// BoundarySlabs returns the six disjoint slabs of boundary points — points
// whose stencil reads at least one halo point — of an n-point local domain,
// ordered -z, +z, -y, +y, -x, +x. Together with Interior(n) they tile the
// domain. These are the points computed after communication completes in
// the overlap implementations (§IV-C, §IV-D).
func BoundarySlabs(n grid.Dims) []grid.Subdomain {
	b := grid.BoxSplit{Local: n, T: 1}
	return b.Walls()
}

// InteriorThirds splits the interior of an n-point local domain into three
// slabs along z, as equal as possible. Implementation §IV-C computes the
// first third between initiation and completion of the x exchange, the
// second within the y exchange, and the last within the z exchange.
func InteriorThirds(n grid.Dims) [3]grid.Subdomain {
	in := Interior(n)
	var out [3]grid.Subdomain
	base := in.Size.Z / 3
	rem := in.Size.Z % 3
	lo := in.Lo.Z
	for t := 0; t < 3; t++ {
		sz := base
		if t < rem {
			sz++
		}
		out[t] = grid.Subdomain{
			Lo:   grid.Dims{X: in.Lo.X, Y: in.Lo.Y, Z: lo},
			Size: grid.Dims{X: in.Size.X, Y: in.Size.Y, Z: sz},
		}
		lo += sz
	}
	return out
}

// Whole returns the full local domain as a subdomain.
func Whole(n grid.Dims) grid.Subdomain {
	return grid.Subdomain{Size: n}
}
