package impl

import (
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// gpuBulkSync is §IV-F: multi-GPU with CPUs performing MPI communication,
// bulk synchronously. Each task keeps its whole subdomain on the GPU.
// Per step the CPU exchanges boundary data with its neighbors through a
// host-side shadow of the boundary shell, uploads the assembled halo shell
// in one large contiguous buffer ("we need the buffers to allow
// communication between CPU and GPU to be in large contiguous chunks"),
// runs the face and interior kernels, and downloads the freshly computed
// boundary for the next step's exchange. Nothing overlaps: every phase
// completes before the next begins.
type gpuBulkSync struct{}

func (gpuBulkSync) Kind() core.Kind { return core.GPUBulkSync }

func (gpuBulkSync) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runGPUMPI(core.GPUBulkSync, p, o, false)
}

// gpuStreams is §IV-G: the same data layout as §IV-F, but the interior
// kernel is issued to one CUDA stream before the CPU performs MPI
// communication, and the halo upload, boundary kernels, and boundary
// download go to a second stream — so the interior computation can overlap
// the MPI communication, the PCIe transfers, and (on devices with
// concurrent kernels) the boundary computation. The CPU ends the step by
// synchronizing the two streams.
type gpuStreams struct{}

func (gpuStreams) Kind() core.Kind { return core.GPUStreams }

func (gpuStreams) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runGPUMPI(core.GPUStreams, p, o, true)
}

// runGPUMPI is the shared schedule of §IV-F and §IV-G: the task's whole
// subdomain lives on the device, and the CPU keeps a host-side shadow
// field whose shell holds the boundary data in flight between GPU and
// network.
func runGPUMPI(kind core.Kind, p core.Problem, o core.Options, overlap bool) (*core.Result, error) {
	return runWorld(kind, p, o, func(r *rank) *grid.Field {
		n := r.sub.Size
		r.checkBlock(n)
		local := grid.NewField(n, 1)
		r.fill(local)
		shadow := local.Clone()
		st := r.upload(n, 1, local)
		defer st.free()
		ex := r.haloExchanger(shadow)

		wallSubs := stencil.BoundarySlabs(n)
		hSubs := haloSlabs(n, 1)
		interior := stencil.Interior(n)
		dev, host, bx, by := r.dev, &r.host, r.o.BlockX, r.o.BlockY
		wallBuf := dev.Alloc(subsVolume(wallSubs))
		haloBuf := dev.Alloc(subsVolume(hSubs))
		defer dev.Free(wallBuf)
		defer dev.Free(haloBuf)
		hostWall := make([]float64, wallBuf.Len())
		hostHalo := make([]float64, haloBuf.Len())

		s1 := dev.NewStream("interior")
		s2 := s1
		if overlap {
			s2 = dev.NewStream("boundary")
		}

		r.timed(func() {
			for step := 0; step < r.p.Steps; step++ {
				checkCancelRank(r.o)
				ex.setStep(step)
				if overlap {
					// §IV-G: interior kernel first, so it runs while the
					// CPU communicates.
					sp := r.span(step, obs.PhaseLaunch, "interior")
					host.Set(launchInteriorStep(st, s1, host.Now(), interior, bx, by))
					sp.End()
				}

				// CPU-side MPI exchange over the shadow shell.
				ex.exchangeAll()

				// Upload the assembled halo shell and run the boundary work.
				sp := r.span(step, obs.PhaseHaloPack, "shell")
				packSubs(shadow, hSubs, hostHalo)
				sp.End()
				if overlap {
					host.Set(dev.MemcpyAsync(host.Now(), s2, gpusim.HostToDevice, haloBuf, hostHalo))
				} else {
					host.Set(dev.Memcpy(host.Now(), gpusim.HostToDevice, haloBuf, hostHalo))
				}
				host.Set(launchHaloUnpack(st, s2, host.Now(), "halo unpack", hSubs, haloBuf, bx, by))
				host.Set(launchWallCompute(st, s2, host.Now(), "faces", wallSubs, wallBuf, bx, by))

				if overlap {
					host.Set(dev.MemcpyAsync(host.Now(), s2, gpusim.DeviceToHost, wallBuf, hostWall))
				} else {
					// §IV-F: interior kernel after the boundary work, still
					// on the single stream.
					host.Set(launchInteriorStep(st, s1, host.Now(), interior, bx, by))
					host.Set(s1.Synchronize(host.Now()))
					host.Set(dev.Memcpy(host.Now(), gpusim.DeviceToHost, wallBuf, hostWall))
				}

				// End of step: synchronize the streams, land the new
				// boundary in the shadow shell, flip the state buffers.
				host.Set(dev.Synchronize(host.Now(), s1, s2))
				sp = r.span(step, obs.PhaseHaloUnpack, "shell")
				unpackSubs(shadow, wallSubs, hostWall)
				sp.End()
				st.flip()
			}
		})
		host.Set(st.download(host.Now(), local))
		return local
	})
}
