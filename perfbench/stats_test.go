package main

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 100 samples: p99 has one sample beyond it, p90 has ten.
	xs := seq(100)
	if _, err := percentile(xs, 99); !errors.Is(err, errTooFewBeyond) {
		t.Fatalf("p99 of 100 samples: err %v, want errTooFewBeyond", err)
	}
	if v, err := percentile(xs, 90); err != nil || math.Abs(v-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90.1", v, err)
	}
	v, p, err := tail(xs, 99)
	if err != nil || p != 90 || math.Abs(v-90.1) > 1e-9 {
		t.Fatalf("tail(1..100, 99) = %v, p%d, %v; want 90.1 at p90", v, p, err)
	}
	if v, p, err := tail(seq(2000), 99); err != nil || p != 99 || beyond(seq(2000), v) < minBeyond {
		t.Fatalf("tail(1..2000, 99) = %v, p%d, %v; want p99", v, p, err)
	}
	if _, _, err := tail(seq(10), 99); !errors.Is(err, errTooFewBeyond) {
		t.Fatalf("10 samples have no tail with 10 beyond; err %v", err)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const work = 20 * time.Millisecond
	sched := []item{{due: 0}, {due: time.Millisecond}, {due: 2 * time.Millisecond}}
	var running atomic.Int32
	send := func(it item, due time.Time) sample {
		return timedSend(it, due, func(item) (jobOutcome, error) {
			if running.Add(1) > 1 {
				t.Error("two sends ran at once with one sender")
			}
			time.Sleep(work)
			running.Add(-1)
			return jobOutcome{}, nil
		})
	}
	out := openLoop(sched, 1, send)
	// One sender: the second request waits for the first, so it goes out
	// about work − 1 ms late, and its latency still counts from its due
	// time, lateness included.
	for i, s := range out {
		if s.lat < s.late+work {
			t.Errorf("request %d: latency %v shorter than lateness %v plus the work %v", i, s.lat, s.late, work)
		}
	}
	if out[1].late < work-2*time.Millisecond {
		t.Errorf("second request late by %v, want about %v", out[1].late, work-time.Millisecond)
	}
	if out[2].late < 2*work-4*time.Millisecond {
		t.Errorf("third request late by %v, want about %v", out[2].late, 2*work-2*time.Millisecond)
	}
	if out[0].late > work/2 {
		t.Errorf("first request late by %v with an idle sender", out[0].late)
	}
}

func TestGeomeanAndQuantile(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); g < 3.999999 || g > 4.000001 {
		t.Fatalf("geomean = %v, want 4", g)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
}

// TestPollPlanDoesNotClipFasterJobs checks that the first poll waits only
// half the fastest latency seen so far, whatever came after it.
func TestPollPlanDoesNotClipFasterJobs(t *testing.T) {
	f := fastest{}
	f.note("bulk", 800*time.Millisecond)
	f.note("bulk", 900*time.Millisecond)
	f.note("bulk", 700*time.Millisecond)
	f.note("bulk", time.Second)
	p := planFor(f["bulk"])
	if p.first != 350*time.Millisecond || p.every != 7*time.Millisecond {
		t.Fatalf("plan %+v: want the first poll at 350ms and then every 7ms", p)
	}
	if p := planFor(f["single"]); p.first != 0 || p.grow <= 1 {
		t.Fatalf("plan %+v for a class with no measured job: want an immediate poll and back-off", p)
	}
}
