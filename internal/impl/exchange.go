package impl

import (
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// exchanger performs the paper's dimension-serialized halo exchange
// (§IV-B): three phases, x then y then z, each exchanging one face pair
// with the two neighbors in that dimension. Later phases send ranges
// widened by the halos received in earlier phases, so corner and edge
// values propagate and every task effectively communicates with its 26
// logical neighbors through only 6 exchanges.
type exchanger struct {
	c    *mpi.Comm
	d    grid.Decomp
	rank int
	f    *grid.Field

	rec  *obs.Recorder
	step int

	send [3][2][]float64
	recv [3][2][]float64
}

var dimNames = [3]string{"x", "y", "z"}

// haloExchanger builds the halo exchanger over the rank's field f, recording
// into the run's recorder.
func (r *rank) haloExchanger(f *grid.Field) *exchanger {
	e := newExchanger(r.c, r.d, f)
	e.rec = r.o.Rec
	e.c.SetRecorder(r.o.Rec)
	return e
}

// setStep tags this step's spans — the exchanger's pack/unpack/exchange
// windows and the communicator's mpi.* spans — with the timestep.
func (e *exchanger) setStep(s int) {
	e.step = s
	e.c.SetStep(s)
}

// Tag layout: the message carrying a task's low face in dimension d is
// tagLow(d); its high face is tagHigh(d). Distinct tags keep the two
// directions apart even when both neighbors are the same rank (task grids
// of extent 1 or 2).
func tagLow(dim int) int  { return dim * 2 }
func tagHigh(dim int) int { return dim*2 + 1 }

func newExchanger(c *mpi.Comm, d grid.Decomp, f *grid.Field) *exchanger {
	e := &exchanger{c: c, d: d, rank: c.Rank(), f: f}
	for dim := 0; dim < 3; dim++ {
		n := f.FaceCount(dim) * f.Halo
		for s := 0; s < 2; s++ {
			e.send[dim][s] = make([]float64, n)
			e.recv[dim][s] = make([]float64, n)
		}
	}
	return e
}

// phase is one in-flight dimension exchange.
type phase struct {
	dim  int
	t0   float64 // recorder clock at start, for the mpi.exchange span
	reqs [2]*mpi.Request
}

// start packs and posts the exchange for one dimension: nonblocking
// receives first (as the paper's implementations do), then eager sends.
func (e *exchanger) start(dim int) phase {
	h := e.f.Halo
	nbrLo := e.d.Neighbor(e.rank, dim, -1)
	nbrHi := e.d.Neighbor(e.rank, dim, +1)

	// My low halo receives the high face of my -dim neighbor; my high halo
	// receives the low face of my +dim neighbor.
	ph := phase{dim: dim, t0: e.rec.Clock()}
	ph.reqs[0] = e.c.IRecv(nbrLo, tagHigh(dim), e.recv[dim][0])
	ph.reqs[1] = e.c.IRecv(nbrHi, tagLow(dim), e.recv[dim][1])

	a := e.rec.Begin(e.rank, e.step, obs.PhaseHaloPack, dimNames[dim])
	e.f.PackFace(dim, -1, h, e.send[dim][0])
	e.f.PackFace(dim, +1, h, e.send[dim][1])
	a.End()
	e.c.ISend(nbrLo, tagLow(dim), e.send[dim][0])
	e.c.ISend(nbrHi, tagHigh(dim), e.send[dim][1])
	return ph
}

// finish completes the receives of a phase and unpacks them into the halo.
// The mpi.exchange span it records covers the whole in-flight window since
// start — any compute span landing inside it is communication the schedule
// actually hid.
func (e *exchanger) finish(ph phase) {
	ph.reqs[0].Wait()
	ph.reqs[1].Wait()
	h := e.f.Halo
	a := e.rec.Begin(e.rank, e.step, obs.PhaseHaloUnpack, dimNames[ph.dim])
	e.f.UnpackFace(ph.dim, -1, h, e.recv[ph.dim][0])
	e.f.UnpackFace(ph.dim, +1, h, e.recv[ph.dim][1])
	a.End()
	e.rec.Add(e.rank, e.step, obs.PhaseMPIExchange, dimNames[ph.dim], ph.t0, e.rec.Clock())
}

// exchangeAll runs the full bulk-synchronous exchange: all three phases
// back to back.
func (e *exchanger) exchangeAll() {
	for dim := 0; dim < 3; dim++ {
		e.finish(e.start(dim))
	}
}
