package impl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/obs"
)

// newDeviceFor builds the simulated device selected by the options.
func newDeviceFor(o core.Options) *gpusim.Device {
	switch o.GPU {
	case core.GPUC1060:
		return gpusim.NewDevice(gpusim.TeslaC1060(), gpusim.PCIeGen1())
	default:
		return gpusim.NewDevice(gpusim.TeslaC2050(), gpusim.PCIeGen2())
	}
}

// devicePool builds the devices a world shares: with o.TasksPerGPU tasks
// per device, rank r uses pool[r/o.TasksPerGPU]. The default (0 or 1) is
// one device per task.
func devicePool(o core.Options, tasks int) []*gpusim.Device {
	per := o.TasksPerGPU
	if per < 1 {
		per = 1
	}
	groups := (tasks + per - 1) / per
	pool := make([]*gpusim.Device, groups)
	for i := range pool {
		pool[i] = newDeviceFor(o)
	}
	return pool
}

// deviceFor returns rank's device from the pool.
func deviceFor(pool []*gpusim.Device, o core.Options, rank int) *gpusim.Device {
	per := o.TasksPerGPU
	if per < 1 {
		per = 1
	}
	return pool[rank/per]
}

// gpuResident is §IV-E: the problem lives in GPU global memory for the
// whole run — the best-case scenario for GPU performance. The CPU issues
// one kernel call per time step, flipping the two device state buffers,
// and the initial upload and final download are excluded from the timing,
// exactly as in the paper.
type gpuResident struct{}

func (gpuResident) Kind() core.Kind { return core.GPUResident }

func (gpuResident) Run(p core.Problem, o core.Options) (*core.Result, error) {
	if o.Tasks > 1 {
		return nil, fmt.Errorf("impl: GPU-resident implementation is single task, got %d", o.Tasks)
	}
	return runWorld(core.GPUResident, p, o, func(r *rank) *grid.Field {
		r.checkBlock(r.sub.Size)
		local := grid.NewField(r.sub.Size, 1)
		r.fill(local)
		st := r.upload(r.sub.Size, 0, local)
		defer st.free()
		stream := r.dev.NewStream("compute")
		r.timed(func() {
			for s := 0; s < r.p.Steps; s++ {
				checkCancelRank(r.o)
				sp := r.span(s, obs.PhaseLaunch, "resident")
				r.host.Set(launchResidentStep(st, stream, r.host.Now(), r.o.BlockX, r.o.BlockY))
				sp.End()
				st.flip()
			}
			// "The CPU and GPU synchronize immediately before timer calls."
			r.host.Set(r.dev.Synchronize(r.host.Now(), stream))
		})
		r.host.Set(st.download(r.host.Now(), local))
		return local
	})
}
