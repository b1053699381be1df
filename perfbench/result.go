package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// result collects one measured phase of a workload: operation counts,
// correctness problems, end-to-end figures, the traffic counters behind
// the per-layer rows, and human-readable report lines.
type result struct {
	attempted, failed int
	problems          []string
	failures          []string // first few failure messages, for the log

	e2e   map[string]float64
	tailP int // the percentile e2e["p99_ms"] actually holds
	lines []string

	// memFrom and memTo bound the part of the phase rss_peak_mb is taken
	// over; zero means the whole phase.
	memFrom, memTo time.Time

	// Traffic counters (per job carried to its result).
	jobs      int // jobs submitted and answered
	cacheHits int // by the view's cache_hit field
	executed  int // jobs that were not cache hits
	polls     int // result or status fetches for executed jobs and sessions
	fresh200  int // never-seen fingerprints answered 200
	sessions  int
	lateMs    []float64 // how late each request went out

	// traceMs holds the latencies behind p50_ms by class, untraced ones
	// at [0] and traced ones at [1].
	traceMs [2]map[string][]float64
}

const keepMessages = 5

func newResult() *result { return &result{e2e: map[string]float64{}} }

// fail counts a failed operation. A failure that is not shed load, a
// server error or a transport error means a wrong answer, so it is also a
// correctness problem.
func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < keepMessages {
		r.failures = append(r.failures, err.Error())
	}
	if !isFailure(err) {
		r.problem(err)
	}
}

func (r *result) problem(err error) {
	r.problems = append(r.problems, err.Error())
}

func (r *result) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// setTail stores the highest percentile up to p99 that has enough samples
// beyond it as p99_ms, and remembers which percentile that was. With too
// few samples for any, p99_ms stays unset.
func (r *result) setTail(msSamples []float64) {
	if v, p, err := tail(msSamples, 99); err == nil {
		r.e2e["p99_ms"], r.tailP = v, p
	}
}

// timed records a latency sample of class behind p50_ms, under the trace
// group of the tracer its request ran with.
func (r *result) timed(tr *tracer, class string, msv float64) {
	g := 0
	if tr != nil {
		g = 1
	}
	if r.traceMs[g] == nil {
		r.traceMs[g] = map[string][]float64{}
	}
	r.traceMs[g][class] = append(r.traceMs[g][class], msv)
}

// traceOverhead is the geometric mean over classes of the traced ÷
// untraced median latency, minus one; NaN when no class has both.
func (r *result) traceOverhead() float64 {
	classes := make([]string, 0, len(r.traceMs[0]))
	for c := range r.traceMs[0] {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var ratios []float64
	for _, c := range classes {
		if on := r.traceMs[1][c]; len(on) > 0 {
			ratios = append(ratios, median(on)/median(r.traceMs[0][c]))
		}
	}
	if len(ratios) == 0 {
		return math.NaN()
	}
	return geomean(ratios) - 1
}

// timedMs is every latency sample behind p50_ms, traced or not.
func (r *result) timedMs() []float64 {
	var out []float64
	for _, g := range r.traceMs {
		for _, xs := range g {
			out = append(out, xs...)
		}
	}
	return out
}

// countTraffic records one answered job. fresh marks a request whose
// fingerprint was never sent before: if the node answered it 200 it
// reported a cache hit it cannot have had.
func (r *result) countTraffic(out jobOutcome, fresh bool) {
	r.jobs++
	if out.view.CacheHit {
		r.cacheHits++
		return
	}
	r.executed++
	r.polls += out.polls
	if fresh && out.status == 200 {
		r.fresh200++
	}
}

// absorb adds o's operation counts and problems to r.
func (r *result) absorb(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
	r.failures = append(r.failures, o.failures...)
}

func (r *result) logTo(name string) {
	for _, l := range r.lines {
		fmt.Fprintf(os.Stdout, "%s: %s\n", name, l)
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "%s: failed operation: %s\n", name, f)
	}
	for i, p := range r.problems {
		if i == keepMessages {
			fmt.Fprintf(os.Stderr, "%s: ... %d more correctness failures\n", name, len(r.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "%s: CORRECTNESS: %s\n", name, strings.TrimSpace(p))
	}
}
