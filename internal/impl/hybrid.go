package impl

import (
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// hybridRunner implements §IV-H (overlap=false) and §IV-I (overlap=true):
// CPU and GPU computation with the box decomposition of Fig. 1. Each
// task's domain is partitioned between CPU and GPU as a block in a box:
// the GPU computes the interior block, the CPU computes the enclosing
// shell whose wall thickness (Options.BoxThickness) balances the load.
//
// §IV-H is bulk synchronous: the task first exchanges inner halos and
// boundaries with the GPU (synchronous PCIe copies) and outer halos with
// its neighbors through MPI, then issues the GPU kernels and computes the
// shell — CPU and GPU computation may overlap, nothing else does.
//
// §IV-I attempts the most extensive overlap: the GPU interior kernel is
// issued first on one stream; the inner-halo upload, GPU boundary kernels,
// and boundary download run asynchronously on a second stream; MPI
// communication in each dimension overlaps CPU computation of the interior
// points of that dimension's walls; and the CPU finishes with the outer
// boundary points before synchronizing the streams. CPU computation, GPU
// computation, MPI communication, and CPU-GPU communication can all be in
// flight at once, which is why this implementation can win by more than a
// factor of two.
type hybridRunner struct {
	overlap bool
}

func (h hybridRunner) Kind() core.Kind {
	if h.overlap {
		return core.HybridOverlap
	}
	return core.HybridBulkSync
}

func (h hybridRunner) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runWorld(h.Kind(), p, o, func(r *rank) *grid.Field {
		local := r.sub.Size
		// The rank must be able to carve a GPU block out of its subdomain.
		box, err := grid.NewBoxSplit(local, r.o.BoxThickness)
		if err != nil {
			panic(err)
		}
		inner := box.Inner()
		r.checkBlock(inner.Size)
		r.extra["thickness"] = float64(r.o.BoxThickness)

		cs := r.cpuState(1)
		ex := r.haloExchanger(cs.cur)
		dev, host, bx, by := r.dev, &r.host, r.o.BlockX, r.o.BlockY

		// Device state over the inner block.
		blockInit := grid.NewField(inner.Size, 1)
		blockInit.Fill(func(i, j, k int) float64 {
			return cs.cur.At(inner.Lo.X+i, inner.Lo.Y+j, inner.Lo.Z+k)
		})
		st := r.upload(inner.Size, 1, blockInit)
		defer st.free()

		// Geometry, all reusable across steps.
		ringGPU := haloSlabs(inner.Size, 1)            // GPU halo shell, device coords
		ringCPU := offsetSubs(ringGPU, inner.Lo)       // same region, CPU coords
		outerGPU := stencil.BoundarySlabs(inner.Size)  // block outer layer, device coords
		outerCPU := offsetSubs(outerGPU, inner.Lo)     // same region, CPU coords
		walls := box.Walls()                           // CPU shell, thickness T
		domainBoundary := stencil.BoundarySlabs(local) // outermost CPU layer
		innerWalls := make([][2]grid.Subdomain, 3)     // per-dim wall parts away from MPI halos
		for dim := 0; dim < 3; dim++ {
			wpair := box.WallsByDim(dim)
			for s, wsub := range wpair {
				innerWalls[dim][s] = grid.Intersect(wsub, stencil.Interior(local))
			}
		}
		blockInterior := stencil.Interior(inner.Size)

		ringBuf := dev.Alloc(subsVolume(ringGPU))
		outBuf := dev.Alloc(subsVolume(outerGPU))
		defer dev.Free(ringBuf)
		defer dev.Free(outBuf)
		hostRing := make([]float64, ringBuf.Len())
		hostOut := make([]float64, outBuf.Len())

		s1 := dev.NewStream("interior")
		s2 := s1
		if h.overlap {
			s2 = dev.NewStream("boundary")
		}

		r.timed(func() {
			for step := 0; step < r.p.Steps; step++ {
				checkCancelRank(r.o)
				ex.setStep(step)
				if !h.overlap {
					// §IV-H: all exchanges up front, synchronously.
					// Inner boundary: GPU block outer layer → CPU field.
					sp := r.span(step, obs.PhaseLaunch, "pack outer")
					host.Set(launchPackKernel(st, s1, host.Now(), "pack outer", outerGPU, outBuf, bx, by))
					host.Set(s1.Synchronize(host.Now()))
					host.Set(dev.Memcpy(host.Now(), gpusim.DeviceToHost, outBuf, hostOut))
					sp.End()
					sp = r.span(step, obs.PhaseHaloUnpack, "inner")
					unpackSubs(cs.cur, outerCPU, hostOut)
					sp.End()
					// Inner halo: CPU ring → GPU halo shell.
					sp = r.span(step, obs.PhaseHaloPack, "ring")
					packSubs(cs.cur, ringCPU, hostRing)
					sp.End()
					host.Set(dev.Memcpy(host.Now(), gpusim.HostToDevice, ringBuf, hostRing))
					host.Set(launchHaloUnpack(st, s1, host.Now(), "ring unpack", ringGPU, ringBuf, bx, by))
					// Outer halo: MPI with the neighbor tasks.
					ex.exchangeAll()
					// GPU kernels for the block; CPU computes the shell
					// meanwhile (the kernels are asynchronous).
					host.Set(launchWallCompute(st, s1, host.Now(), "block faces", outerGPU, nil, bx, by))
					host.Set(launchInteriorStep(st, s1, host.Now(), blockInterior, bx, by))
					sp = r.span(step, obs.PhaseInterior, "shell")
					for _, wsub := range walls {
						cs.compute(wsub)
					}
					sp.End()
					host.Set(dev.Synchronize(host.Now(), s1))
				} else {
					// §IV-I: maximum overlap.
					// 1. GPU interior kernel, stream 1.
					sp := r.span(step, obs.PhaseLaunch, "interior")
					host.Set(launchInteriorStep(st, s1, host.Now(), blockInterior, bx, by))
					sp.End()
					// 2. Asynchronous inner-halo traffic and boundary kernels,
					// stream 2. The download is staged and landed after the
					// CPU has finished reading the current ring.
					sp = r.span(step, obs.PhaseHaloPack, "ring")
					packSubs(cs.cur, ringCPU, hostRing)
					sp.End()
					host.Set(dev.MemcpyAsync(host.Now(), s2, gpusim.HostToDevice, ringBuf, hostRing))
					host.Set(launchHaloUnpack(st, s2, host.Now(), "ring unpack", ringGPU, ringBuf, bx, by))
					host.Set(launchWallCompute(st, s2, host.Now(), "block faces", outerGPU, outBuf, bx, by))
					host.Set(dev.MemcpyAsync(host.Now(), s2, gpusim.DeviceToHost, outBuf, hostOut))
					// 3. MPI in each dimension overlapped with the CPU interior
					// wall points of that dimension.
					for dim := 0; dim < 3; dim++ {
						ph := ex.start(dim)
						sp = r.span(step, obs.PhaseInterior, "walls."+dimNames[dim])
						for _, wsub := range innerWalls[dim] {
							cs.compute(wsub)
						}
						sp.End()
						ex.finish(ph)
					}
					// 4. Outer boundary points, then stream synchronization.
					sp = r.span(step, obs.PhaseBoundary, "outer")
					for _, bsub := range domainBoundary {
						cs.compute(bsub)
					}
					sp.End()
					host.Set(dev.Synchronize(host.Now(), s1, s2))
					// Land the new block outer layer for the next step's shell
					// computation.
					sp = r.span(step, obs.PhaseHaloUnpack, "inner")
					unpackSubs(cs.nxt, outerCPU, hostOut)
					sp.End()
				}

				// Commit the step: flip the GPU buffers; copy the CPU-owned
				// regions of the next state into the current state.
				st.flip()
				sp := r.span(step, obs.PhaseCopy, "")
				for _, wsub := range walls {
					cs.commit(wsub)
				}
				if h.overlap {
					for _, osub := range outerCPU {
						cs.commit(osub)
					}
				}
				sp.End()
			}
		})

		// Assemble the rank's full local field: CPU shell + GPU block.
		blockFinal := grid.NewField(inner.Size, 1)
		host.Set(st.download(host.Now(), blockFinal))
		placeInterior(cs.cur, inner.Lo, blockFinal)
		return cs.cur
	})
}
