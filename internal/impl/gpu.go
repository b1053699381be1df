package impl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/stencil"
	"repro/internal/vtime"
)

// devState is a pair of device-resident state fields (current and next)
// over one domain, with the stencil coefficients in constant memory. The
// CPU flips cur and nxt between steps instead of copying, as the paper's
// GPU implementations do ("flipping the arguments between two GPU state
// variables to avoid the need for an extra copy operation").
type devState struct {
	dev  *gpusim.Device
	n    grid.Dims
	halo int

	curBuf, nxtBuf *gpusim.Buffer
	cur, nxt       *grid.Field // views over the device buffers
	op             *stencil.Op // built from constant memory
}

// newDevState allocates device memory for the domain, uploads the
// coefficients to constant memory, and uploads the initial state.
func newDevState(dev *gpusim.Device, host vtime.Time, p core.Problem, n grid.Dims, halo int, initial *grid.Field) (*devState, vtime.Time) {
	s := &devState{dev: dev, n: n, halo: halo}
	size := (n.X + 2*halo) * (n.Y + 2*halo) * (n.Z + 2*halo)
	s.curBuf = dev.Alloc(size)
	s.nxtBuf = dev.Alloc(size)
	s.cur = grid.NewFieldOn(n, halo, s.curBuf.Data())
	s.nxt = grid.NewFieldOn(n, halo, s.nxtBuf.Data())

	host = dev.LoadConstant(host, stencil.TableI(p.C, p.Nu).Constants())
	// The kernels read the coefficients back from constant memory.
	s.op = stencil.NewOp(stencil.FromConstants(dev.Constant()), s.cur)

	host = dev.Memcpy(host, gpusim.HostToDevice, s.curBuf, initialUpload(initial, n, halo))
	return s, host
}

// upload puts a device state over an n-point domain on the rank's device,
// initialized from f, and advances the rank's host clock past the copy.
func (r *rank) upload(n grid.Dims, halo int, f *grid.Field) *devState {
	st, h := newDevState(r.dev, r.host.Now(), r.p, n, halo, f)
	r.host.Set(h)
	return st
}

// initialUpload lays the initial field out in the device buffer's shape.
func initialUpload(f *grid.Field, n grid.Dims, halo int) []float64 {
	size := (n.X + 2*halo) * (n.Y + 2*halo) * (n.Z + 2*halo)
	staging := make([]float64, size)
	view := grid.NewFieldOn(n, halo, staging)
	view.CopyInteriorFrom(f)
	return staging
}

// flip exchanges the current and next state views and buffers.
func (s *devState) flip() {
	s.curBuf, s.nxtBuf = s.nxtBuf, s.curBuf
	s.cur, s.nxt = s.nxt, s.cur
}

// download copies the current state's interior back to a host field.
func (s *devState) download(host vtime.Time, dst *grid.Field) vtime.Time {
	staging := make([]float64, s.curBuf.Len())
	host = s.dev.Memcpy(host, gpusim.DeviceToHost, s.curBuf, staging)
	view := grid.NewFieldOn(s.n, s.halo, staging)
	dst.CopyInteriorFrom(view)
	return host
}

// free releases the device allocations.
func (s *devState) free() {
	s.dev.Free(s.curBuf)
	s.dev.Free(s.nxtBuf)
}

// residentLaunch is the launch geometry of the single-GPU periodic kernel.
func residentLaunch(n grid.Dims, bx, by int) gpusim.Launch {
	return gpusim.StencilLaunch(n.X, n.Y, n.Z, bx, by)
}

// subLaunch is the launch geometry for a kernel over a subdomain.
func subLaunch(sub grid.Subdomain, bx, by int) gpusim.Launch {
	s := sub.Size
	if bx > s.X {
		bx = s.X
	}
	if by > s.Y {
		by = s.Y
	}
	return gpusim.StencilLaunch(s.X, s.Y, s.Z, bx, by)
}

// launchResidentStep enqueues the paper's single-GPU kernel (§IV-E,
// following the algorithm of Micikevicius): two-dimensional thread blocks
// iterate over z; each iteration stages an xy slab (halo included) in
// shared memory; halo threads beyond the boundary of the global domain
// copy from the opposite boundary to implement periodicity; interior
// threads compute and store to global memory.
func launchResidentStep(s *devState, stream *gpusim.Stream, host vtime.Time, bx, by int) vtime.Time {
	if s.halo != 0 {
		panic("impl: resident kernel expects a halo-free device domain")
	}
	l := residentLaunch(s.n, bx, by)
	cur, nxt, n, op := s.cur, s.nxt, s.n, s.op
	return s.dev.Launch(host, stream, "resident step", l, func() {
		runTiledKernel(op, cur, nxt, stencil.Whole(n), bx, by, true)
	})
}

// launchInteriorStep enqueues the interior kernel used by the multi-GPU
// implementations: the same tiling without the periodicity logic,
// restricted to sub (whose stencil must not read beyond cur's storage).
func launchInteriorStep(s *devState, stream *gpusim.Stream, host vtime.Time, sub grid.Subdomain, bx, by int) vtime.Time {
	if sub.Empty() {
		return host
	}
	l := subLaunch(sub, bx, by)
	cur, nxt, op := s.cur, s.nxt, s.op
	return s.dev.Launch(host, stream, "interior", l, func() {
		runTiledKernel(op, cur, nxt, sub, bx, by, false)
	})
}

// runTiledKernel is the functional body shared by the resident and
// interior kernels: it walks the launch's thread blocks, stages each z
// slab of the block's tile (with a one-point halo ring, loaded by the halo
// threads) into a shared-memory tile, and computes Eq. 2 for the interior
// threads, rotating three tile slabs as z advances. Each plane first
// forms a z-sum tile from the three slabs, then every interior thread
// combines it in y and x — the factored order of stencil.Op, so the GPU
// and CPU kernels agree bitwise. With wrap=true the tile loads wrap around
// the global domain (periodic single-GPU kernel); otherwise out-of-range
// loads come from the field's halo storage.
func runTiledKernel(op *stencil.Op, cur, nxt *grid.Field, sub grid.Subdomain, bx, by int, wrap bool) {
	qx, qy, qz := op.Coeffs().Factors()
	n := cur.N
	hi := sub.Hi()
	tw, th := bx+2, by+2 // tile extents with halo ring
	// Shared memory: three rotating slabs, the z sums of the current
	// plane, and the y combines of one tile row.
	smem := make([]float64, 4*tw*th+tw)
	km, kc, kp := smem[:tw*th], smem[tw*th:2*tw*th], smem[2*tw*th:3*tw*th]
	zt, yr := smem[3*tw*th:4*tw*th], smem[4*tw*th:]

	wrapIdx := func(v, m int) int { return ((v % m) + m) % m }
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	h := cur.Halo
	data := cur.Data()
	load := func(tile []float64, bi0, bj0, k int) {
		// Every thread of the block, halo threads included, loads one tile
		// element. Tile entries belonging to inactive threads past the
		// domain edge are clamped into valid storage; their values are
		// never read by an active thread.
		for ty := 0; ty < th; ty++ {
			y, z := bj0+ty-1, k
			if wrap {
				y, z = wrapIdx(y, n.Y), wrapIdx(z, n.Z)
			} else {
				y, z = clamp(y, -h, n.Y+h-1), clamp(z, -h, n.Z+h-1)
			}
			row := tile[ty*tw : (ty+1)*tw]
			for tx := range row {
				x := bi0 + tx - 1
				if wrap {
					x = wrapIdx(x, n.X)
				} else {
					x = clamp(x, -h, n.X+h-1)
				}
				row[tx] = data[cur.Idx(x, y, z)]
			}
		}
	}

	out := nxt.Data()
	for bj0 := sub.Lo.Y; bj0 < hi.Y; bj0 += by {
		for bi0 := sub.Lo.X; bi0 < hi.X; bi0 += bx {
			// Active threads of this block: tile columns 1..ax, rows 1..ay.
			ax, ay := min(bx, hi.X-bi0), min(by, hi.Y-bj0)
			// Prime the rotating slabs for the first z iteration.
			load(km, bi0, bj0, sub.Lo.Z-1)
			load(kc, bi0, bj0, sub.Lo.Z)
			for k := sub.Lo.Z; k < hi.Z; k++ {
				load(kp, bi0, bj0, k+1)
				for t := range zt {
					zt[t] = stencil.Combine(qz[0], qz[1], qz[2], km[t], kc[t], kp[t])
				}
				for ty := 1; ty <= ay; ty++ {
					zm, zc, zp := zt[(ty-1)*tw:ty*tw], zt[ty*tw:(ty+1)*tw], zt[(ty+1)*tw:(ty+2)*tw]
					for tx := 0; tx <= ax+1; tx++ {
						yr[tx] = stencil.Combine(qy[0], qy[1], qy[2], zm[tx], zc[tx], zp[tx])
					}
					o := nxt.Idx(bi0, bj0+ty-1, k)
					for tx := 1; tx <= ax; tx++ {
						out[o+tx-1] = stencil.Combine(qx[0], qx[1], qx[2], yr[tx-1], yr[tx], yr[tx+1])
					}
				}
				km, kc, kp = kc, kp, km
			}
		}
	}
}

// packSubs copies the listed subdomains of f (halo coordinates allowed)
// into buf in order and returns the value count.
func packSubs(f *grid.Field, subs []grid.Subdomain, buf []float64) int {
	n := 0
	for _, s := range subs {
		hi := s.Hi()
		for k := s.Lo.Z; k < hi.Z; k++ {
			for j := s.Lo.Y; j < hi.Y; j++ {
				row := f.Idx(s.Lo.X, j, k)
				w := s.Size.X
				copy(buf[n:n+w], f.Data()[row:row+w])
				n += w
			}
		}
	}
	return n
}

// unpackSubs is the inverse of packSubs.
func unpackSubs(f *grid.Field, subs []grid.Subdomain, buf []float64) int {
	n := 0
	for _, s := range subs {
		hi := s.Hi()
		for k := s.Lo.Z; k < hi.Z; k++ {
			for j := s.Lo.Y; j < hi.Y; j++ {
				row := f.Idx(s.Lo.X, j, k)
				w := s.Size.X
				copy(f.Data()[row:row+w], buf[n:n+w])
				n += w
			}
		}
	}
	return n
}

// subsVolume sums the point counts of the subdomains.
func subsVolume(subs []grid.Subdomain) int {
	v := 0
	for _, s := range subs {
		v += s.Volume()
	}
	return v
}

// haloSlabs returns the six slabs tiling the halo shell of an n-point
// domain with halo width h, in the dimension-serialized convention: the z
// slabs span the fully widened xy range (corners and edges included), the
// y slabs the x-widened range, the x slabs the interior range. After a
// standard three-phase exchange these slabs hold exactly the received halo
// data.
func haloSlabs(n grid.Dims, h int) []grid.Subdomain {
	return []grid.Subdomain{
		{Lo: grid.Dims{X: -h, Y: -h, Z: -h}, Size: grid.Dims{X: n.X + 2*h, Y: n.Y + 2*h, Z: h}},
		{Lo: grid.Dims{X: -h, Y: -h, Z: n.Z}, Size: grid.Dims{X: n.X + 2*h, Y: n.Y + 2*h, Z: h}},
		{Lo: grid.Dims{X: -h, Y: -h, Z: 0}, Size: grid.Dims{X: n.X + 2*h, Y: h, Z: n.Z}},
		{Lo: grid.Dims{X: -h, Y: n.Y, Z: 0}, Size: grid.Dims{X: n.X + 2*h, Y: h, Z: n.Z}},
		{Lo: grid.Dims{X: -h, Y: 0, Z: 0}, Size: grid.Dims{X: h, Y: n.Y, Z: n.Z}},
		{Lo: grid.Dims{X: n.X, Y: 0, Z: 0}, Size: grid.Dims{X: h, Y: n.Y, Z: n.Z}},
	}
}

// offsetSubs translates subdomains by delta.
func offsetSubs(subs []grid.Subdomain, delta grid.Dims) []grid.Subdomain {
	out := make([]grid.Subdomain, len(subs))
	for i, s := range subs {
		out[i] = grid.Subdomain{
			Lo:   grid.Dims{X: s.Lo.X + delta.X, Y: s.Lo.Y + delta.Y, Z: s.Lo.Z + delta.Z},
			Size: s.Size,
		}
	}
	return out
}

// launchHaloUnpack enqueues a memory-only kernel that scatters a staged
// halo buffer into the current state's halo shell (the halo-thread copies
// of the paper's boundary-face kernels). It must be enqueued before the
// wall-compute kernels of the same step: wall points at edges read halo
// values belonging to other faces' slabs.
func launchHaloUnpack(s *devState, stream *gpusim.Stream, host vtime.Time, name string,
	subs []grid.Subdomain, buf *gpusim.Buffer, bx, by int) vtime.Time {
	pts := subsVolume(subs)
	if pts == 0 {
		return host
	}
	l := copyLaunch(pts, bx, by)
	cur := s.cur
	return s.dev.Launch(host, stream, name, l, func() {
		unpackSubs(cur, subs, buf.Data())
	})
}

// launchWallCompute enqueues a boundary-face compute kernel (§IV-F): it
// computes the listed wall slabs into the next state and, if outBuf is not
// nil, packs the freshly computed values into the outgoing buffer for the
// CPU to download for the next exchange.
func launchWallCompute(s *devState, stream *gpusim.Stream, host vtime.Time, name string,
	subs []grid.Subdomain, outBuf *gpusim.Buffer, bx, by int) vtime.Time {
	pts := subsVolume(subs)
	if pts == 0 {
		return host
	}
	// Cost: treat the walls as one thin launch over their combined area.
	l := copyLaunch(pts, bx, by)
	l.FlopsPerPoint = stencil.FlopsPerPoint
	l.BytesPerPoint = 16
	cur, nxt, op := s.cur, s.nxt, s.op
	return s.dev.Launch(host, stream, name, l, func() {
		for _, sub := range subs {
			if !sub.Empty() {
				op.Apply(cur, nxt, sub)
			}
		}
		if outBuf != nil {
			packSubs(nxt, subs, outBuf.Data())
		}
	})
}

// launchPackKernel enqueues a memory-only kernel that gathers subdomains of
// the *current* state into a device buffer (used to stage outgoing data).
func launchPackKernel(s *devState, stream *gpusim.Stream, host vtime.Time, name string,
	subs []grid.Subdomain, buf *gpusim.Buffer, bx, by int) vtime.Time {
	pts := subsVolume(subs)
	if pts == 0 {
		return host
	}
	cur := s.cur
	return s.dev.Launch(host, stream, name, copyLaunch(pts, bx, by), func() {
		packSubs(cur, subs, buf.Data())
	})
}

// copyLaunch builds a cost-model launch for a memory-movement kernel over
// the given number of points.
func copyLaunch(points, bx, by int) gpusim.Launch {
	rows := (points + bx - 1) / bx
	if rows < 1 {
		rows = 1
	}
	gy := (rows + by - 1) / by
	return gpusim.Launch{
		GridX: 1, GridY: gy,
		BlockX: bx, BlockY: by,
		HaloX: 0, HaloY: 0,
		ZSlabs:        1,
		Points:        points,
		FlopsPerPoint: 0,
		BytesPerPoint: 16,
	}
}

// checkBlock panics unless the run's thread block is a valid launch over
// an n-point domain on the rank's device.
func (r *rank) checkBlock(n grid.Dims) {
	l := gpusim.StencilLaunch(n.X, n.Y, n.Z, r.o.BlockX, r.o.BlockY)
	if err := l.Validate(r.dev.Props); err != nil {
		panic(fmt.Errorf("impl: block %dx%d invalid: %w", r.o.BlockX, r.o.BlockY, err))
	}
}
