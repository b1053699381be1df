package impl

import (
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
)

// rank is one rank's share of a run, built by runWorld: its communicator
// and subdomain, a thread team when the kind computes on CPUs, and a
// device when it computes on a GPU, whose work advances the rank's
// virtual host clock. A runner's schedule fills its fields with fill,
// runs its step loop inside timed, and returns its local interior.
type rank struct {
	p    core.Problem
	o    core.Options
	c    *mpi.Comm
	d    grid.Decomp
	sub  grid.Subdomain
	team *par.Team      // kind.UsesCPUCompute()
	dev  *gpusim.Device // kind.UsesGPU()
	host gpusim.HostClock

	mass0   float64            // interior sum of the filled field (Verify only)
	elapsed time.Duration      // wall-clock time of the timed region
	simSec  float64            // virtual time of the timed region
	extra   map[string]float64 // runner-specific stats; rank 0's are reported
}

// span opens a wall-clock span attributed to this rank (no-op when the run
// carries no recorder).
func (r *rank) span(step int, ph obs.Phase, label string) obs.Active {
	return r.o.Rec.Begin(r.c.Rank(), step, ph, label)
}

// fill initializes a local field from the global initial condition (the
// Gaussian wave, or a checkpointed state): local point (i,j,k) is global
// point sub.Lo + (i,j,k). With Verify it records the field's mass for the
// drift check.
func (r *rank) fill(f *grid.Field) {
	lo := r.sub.Lo
	f.Fill(func(i, j, k int) float64 { return r.p.InitialValue(lo.X+i, lo.Y+j, lo.Z+k) })
	if r.o.Verify {
		r.mass0 = f.InteriorSum()
	}
}

// timed runs a schedule's step loop between barriers — "We perform a
// barrier immediately before measuring the start time and the end time."
// — and records its wall-clock time and its virtual time.
func (r *rank) timed(loop func()) {
	r.c.Barrier()
	sim0 := r.host.Now()
	t0 := time.Now()
	loop()
	r.c.Barrier()
	r.elapsed = time.Since(t0)
	r.simSec = (r.host.Now() - sim0).Seconds()
}

// runWorld is the scaffold every runner shares. It normalizes and checks
// the run, decomposes the grid over a world of o.Tasks ranks, and gives
// each rank a thread team if the kind computes on CPUs and a device if it
// computes on a GPU. Each rank then runs the runner's schedule, whose
// local interior is gathered on rank 0. The world's communication and
// device counters are summed into Result.Stats, with the slowest rank's
// virtual time, before verification and throughput are filled in.
func runWorld(kind core.Kind, p core.Problem, o core.Options, schedule func(r *rank) *grid.Field) (*core.Result, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	o = o.Normalize()
	if err := checkMPIOptions(p, o); err != nil {
		return nil, err
	}
	d := grid.NewDecomp(p.N, o.Tasks)
	var pool []*gpusim.Device
	if kind.UsesGPU() {
		pool = devicePool(o, o.Tasks)
	}
	traces := poolTraces(pool, o)

	ranks := make([]*rank, o.Tasks)
	var final *grid.Field
	err = safeWorldRun(mpi.NewWorld(o.Tasks), func(c *mpi.Comm) {
		r := &rank{p: p, o: o, c: c, d: d, sub: d.Sub(c.Rank()), extra: map[string]float64{}}
		if kind.UsesCPUCompute() {
			r.team = par.NewTeam(o.Threads)
			defer r.team.Close()
			r.team.SetRecorder(o.Rec, c.Rank())
		}
		if kind.UsesGPU() {
			r.dev = deviceFor(pool, o, c.Rank())
		}
		if g := gather(c, d, schedule(r)); g != nil {
			final = g
		}
		ranks[c.Rank()] = r
	})
	if err != nil {
		return nil, cancelOr(o, err)
	}

	res := &core.Result{Kind: kind, Final: final, Stats: ranks[0].extra}
	var msgs, values, simSec, mass0 float64
	for _, r := range ranks {
		st := r.c.Stats()
		msgs += float64(st.SentMessages)
		values += float64(st.SentValues)
		simSec = max(simSec, r.simSec) // the slowest rank bounds the step time
		mass0 += r.mass0
	}
	stats := res.Stats
	if kind.UsesMPI() {
		stats["tasks"] = float64(o.Tasks)
		stats["mpi.messages"] = msgs
		stats["mpi.values"] = values
		stats["mpi.bytes"] = values * 8
		stats["mpi.msgs/step"] = msgs / float64(max(1, p.Steps))
	}
	if kind.UsesCPUCompute() {
		stats["threads"] = float64(o.Threads)
	}
	if kind.UsesGPU() {
		deviceStats(stats, pool, traces, p, o, simSec)
	}
	finishResult(res, p, o, ranks[0].elapsed, mass0)
	return res, nil
}

// gather assembles the global field on rank 0 from each rank's local
// interior, one x-row copy at a time; other ranks return nil. Rank 0
// places its own interior directly, so a one-rank world copies its field
// exactly once.
func gather(c *mpi.Comm, d grid.Decomp, local *grid.Field) *grid.Field {
	if c.Rank() != 0 {
		flat := make([]float64, local.N.Volume())
		placeInterior(grid.NewFieldOn(local.N, 0, flat), grid.Dims{}, local)
		c.Gather(0, flat)
		return nil
	}
	parts := c.Gather(0, nil)
	global := grid.NewField(d.N, 1)
	for r := 0; r < d.Tasks(); r++ {
		sub, src := d.Sub(r), local
		if r != 0 {
			src = grid.NewFieldOn(sub.Size, 0, parts[r])
		}
		placeInterior(global, sub.Lo, src)
	}
	return global
}

// placeInterior copies src's interior into dst at offset at, by x-rows.
func placeInterior(dst *grid.Field, at grid.Dims, src *grid.Field) {
	n := src.N
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			s := src.Idx(0, j, k)
			t := dst.Idx(at.X, at.Y+j, at.Z+k)
			copy(dst.Data()[t:t+n.X], src.Data()[s:s+n.X])
		}
	}
}
