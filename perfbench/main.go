// Command perfbench is the repository's benchmark. One run boots an
// in-process two-node cluster the way `advectgw -local 2` does, drives one
// workload through its gateway and prints every metric with its unit.
//
//	bash perfbench/run.sh --workload solve --seed 1 --seconds 30 --trace 0
//
// Workloads: solve (verified 96³ simulations through four runners), serve
// (an open loop of cached and fresh predicts plus tiny simulates, then a
// closed-loop saturation phase), session (checkpointed sessions and their
// forks); "all" runs the three in turn. With --trace 0 the run reports the
// end-to-end metrics, measured untraced. With --trace 1 it reports the
// per-layer metrics: it runs the workload tracing every other request,
// calls every layer's public functions directly, and writes the
// benchmark's own spans as a Chrome trace under --out.
//
// The last line of standard output is a JSON object: correct, attempted,
// failed and metrics. The exit code is non-zero when any correctness
// check fails or a workload cannot be measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"gf", "GF", "higher"},
	{"p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

var kinds = []string{"single", "bulk", "nonblocking", "hybrid"}

func perLayer() []metricDef {
	d := []metricDef{
		{"stencil.apply.gf.64", "GF", "higher"},
		{"stencil.apply.gf.128", "GF", "higher"},
		{"grid.pack.gbps", "GB/s", "higher"},
		{"grid.init_ms.96", "ms", "lower"},
		{"grid.verify_ms.96", "ms", "lower"},
		{"mpi.pingpong_us", "us", "lower"},
		{"mpi.face.gbps", "GB/s", "higher"},
		{"par.forkjoin_us", "us", "lower"},
		{"gpusim.launch_us", "us", "lower"},
	}
	for _, k := range kinds {
		d = append(d,
			metricDef{"impl.step_ms." + k, "ms", "lower"},
			metricDef{"impl.setup_ms." + k, "ms", "lower"},
			metricDef{"impl.alloc_mb." + k, "MB", "lower"},
			metricDef{"impl.allocs." + k, "count", "lower"})
	}
	d = append(d,
		metricDef{"impl.overlap_saved.nonblocking", "frac", "higher"},
		metricDef{"impl.hidden_frac.nonblocking", "frac", "higher"},
		metricDef{"impl.compute_ms.single.r0", "ms", "lower"})
	for _, k := range kinds[1:] {
		for r := 0; r < 2; r++ {
			d = append(d, metricDef{fmt.Sprintf("impl.compute_ms.%s.r%d", k, r), "ms", "lower"})
		}
	}
	for _, k := range kinds[1:] {
		for r := 0; r < 2; r++ {
			d = append(d, metricDef{fmt.Sprintf("impl.mpi_ms.%s.r%d", k, r), "ms", "lower"})
		}
	}
	return append(d,
		metricDef{"perf.evaluate_us", "us", "lower"},
		metricDef{"service.submit_us.cached", "us", "lower"},
		metricDef{"service.submit_us.fresh", "us", "lower"},
		metricDef{"service.http_us.cached", "us", "lower"},
		metricDef{"service.http_overhead_us", "us", "lower"},
		metricDef{"service.cache_hit_frac", "frac", "higher"},
		metricDef{"service.polls_per_job", "count", "lower"},
		metricDef{"service.shed_frac", "frac", "lower"},
		metricDef{"service.fresh_200", "count", "lower"},
		metricDef{"cluster.hop_us.cached", "us", "lower"},
		metricDef{"cluster.hop_us.fresh", "us", "lower"},
		metricDef{"cluster.ring_lookup_ns", "ns", "lower"},
		metricDef{"cluster.checkpoint_syncs", "count", "lower"},
		metricDef{"session.segment_ms", "ms", "lower"},
		metricDef{"session.runner_ms", "ms", "lower"},
		metricDef{"session.ckpt_overhead_frac", "frac", "lower"},
		metricDef{"checkpoint.save_ms", "ms", "lower"},
		metricDef{"checkpoint.load_ms", "ms", "lower"},
		metricDef{"checkpoint.bytes", "bytes", "lower"},
		metricDef{"loadgen.late_p99_ms", "ms", "lower"},
		metricDef{"loadgen.tail_ms", "ms", "lower"},
		metricDef{"obs.trace_overhead_frac", "frac", "lower"},
		metricDef{"trace.self_ms.request", "ms", "lower"},
		metricDef{"trace.self_ms.gateway", "ms", "lower"},
		metricDef{"trace.self_ms.verify", "ms", "lower"},
	)
}

// workload is one traffic shape. A fresh value is built for every set-up
// round, so each round warms the same way.
type workload interface {
	warm(ctx context.Context, e *env) error
	measure(ctx context.Context, e *env, span time.Duration, tr *tracer) (*result, error)
}

type env struct {
	cl *client
	c  *testCluster
}

var workloads = map[string]struct {
	build    func(seed int64) workload
	sessions bool // nodes need session stores
}{
	"solve":   {func(s int64) workload { return newSolve(s) }, false},
	"serve":   {func(s int64) workload { return newServe(s) }, false},
	"session": {func(s int64) workload { return newSession(s) }, true},
}

// setupRounds is how many times a run boots and warms the cluster; it
// reports the median and measures on the last one. The first rounds of a
// process run slower than later ones (about 1.5× for serve), so a median
// of five moved with how long that lasted.
const setupRounds = 15

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "solve, serve, session, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for traces and session stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = []string{"solve", "serve", "session"}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want solve, serve, session or all)\n", o.workload)
			return 2
		}
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runDir := filepath.Join(o.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	total := newResult()
	perWorkload := map[string]map[string]float64{}
	for _, n := range names {
		res, m, err := runWorkload(n, o, runDir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		res.logTo(n)
		total.absorb(res)
		perWorkload[n] = m
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	doc := map[string]any{
		"correct":   len(total.problems) == 0,
		"attempted": total.attempted,
		"failed":    total.failed,
		"metrics":   map[string]any{},
	}
	out := doc["metrics"].(map[string]any)
	var human []string
	for _, n := range names {
		for _, d := range defs {
			key := d.name
			if len(names) > 1 {
				key = n + "." + d.name
			}
			v, ok := perWorkload[n][d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured (%v)\n", n, d.name, v)
				return 1
			}
			out[key] = map[string]any{"value": v, "unit": d.unit}
			human = append(human, fmt.Sprintf("%-40s %14.6g %s", key, v, d.unit))
		}
	}
	sort.Strings(human)
	for _, h := range human {
		fmt.Fprintln(stdout, h)
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed, %d correctness failures\n",
		total.attempted, total.failed, len(total.problems))
	line, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(total.problems) > 0 {
		return 1
	}
	return 0
}

// runWorkload sets the cluster up setupRounds times, measures on the last
// one, and returns the run's counts and metrics.
func runWorkload(name string, o options, runDir string) (*result, map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	spec := workloads[name]
	cl := newClient()
	defer cl.close()

	var c *testCluster
	var w workload
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		dir := ""
		if spec.sessions {
			dir = filepath.Join(runDir, fmt.Sprintf("%s-setup-%d", name, i))
		}
		var err error
		if c, err = bootCluster(dir); err != nil {
			return nil, nil, err
		}
		if err := c.ready(ctx, cl); err != nil {
			c.close()
			return nil, nil, err
		}
		w = spec.build(o.seed)
		if err := w.warm(ctx, &env{cl: cl, c: c}); err != nil {
			c.close()
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	e := &env{cl: cl, c: c}
	span := time.Duration(o.seconds * float64(time.Second))
	m := map[string]float64{}
	if !o.trace {
		rss := startRSSSampler(rssEvery)
		res, err := w.measure(ctx, e, span, nil)
		samples := rss.stop()
		c.close()
		if err != nil {
			return nil, nil, err
		}
		memMB := samples.within(res.memFrom, res.memTo)
		for k, v := range res.e2e {
			m[k] = v
		}
		m["setup_s"] = median(setups)
		m["rss_peak_mb"] = quantile(memMB, rssQuantile)
		res.line("rss: p%.0f %.1f MB over %d samples, max %.1f MB; process VmHWM %.1f MB",
			rssQuantile*100, m["rss_peak_mb"], len(memMB), quantile(memMB, 1), rssPeakMB())
		res.line("setup_s %.4f s (median of %d)", m["setup_s"], len(setups))
		if v, ok := res.e2e["p99_ms"]; ok {
			res.line("%s.p%d_ms %.4f ms (tail: the highest percentile <= 99 with >= %d samples beyond it)",
				name, res.tailP, v, minBeyond)
		} else {
			res.line("too few operations for a tail percentile with >= %d samples beyond it", minBeyond)
		}
		return res, m, nil
	}

	tr := newTracer()
	traced, err := w.measure(ctx, e, span, tr)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	traffic(ctx, cl, c, traced, m)
	c.close()
	m["obs.trace_overhead_frac"] = traced.traceOverhead()
	// The tail takes traced and untraced requests alike (tracing costs
	// them about as much as noise does, obs.trace_overhead_frac shows);
	// a short solve run has too few of either alone for a tail.
	if xs := traced.timedMs(); len(xs) > 0 {
		v, p, err := tail(xs, 99)
		if err != nil {
			v, p = quantile(xs, 1), 100
		}
		m["loadgen.tail_ms"] = v
		traced.line("loadgen.tail_ms is p%d of %d latencies", p, len(xs))
	} else {
		m["loadgen.tail_ms"] = math.NaN()
	}

	requests := 0
	for _, s := range tr.snapshot() {
		if s.Layer == "request" {
			requests++
		}
	}
	pr := &probes{tr: tr, m: m, res: traced, dir: runDir, cl: cl}
	pr.run(ctx)

	spans := tr.snapshot()
	self := selfTime(spans)
	for _, l := range []string{"request", "gateway", "verify"} {
		m["trace.self_ms."+l] = ms(self[l]) / float64(max(requests, 1))
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		traced.line("self time %-10s %10.3f ms total", l, ms(self[l]))
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed))
	if err := writeTraceFile(path, spans); err != nil {
		return nil, nil, err
	}
	traced.line("wrote %d spans to %s", len(spans), path)
	return traced, m, nil
}

// traffic fills the per-layer rows that come from the traced phase's own
// requests and from the cluster's exported stats.
func traffic(ctx context.Context, cl *client, c *testCluster, r *result, m map[string]float64) {
	ops := r.executed + 2*r.sessions
	m["service.cache_hit_frac"] = float64(r.cacheHits) / float64(max(r.jobs, 1))
	m["service.polls_per_job"] = float64(r.polls) / float64(max(ops, 1))
	m["service.shed_frac"] = float64(r.failed) / float64(max(r.attempted, 1))
	m["service.fresh_200"] = float64(r.fresh200)
	m["loadgen.late_p99_ms"] = math.NaN()
	if v, _, err := tail(r.lateMs, 99); err == nil {
		m["loadgen.late_p99_ms"] = v
	} else if len(r.lateMs) > 0 {
		m["loadgen.late_p99_ms"] = quantile(r.lateMs, 1)
	}
	var stats cluster.ClusterStats
	if st, body, err := cl.get(ctx, c.gwURL+"/v1/stats"); err == nil && st == http.StatusOK && json.Unmarshal(body, &stats) == nil {
		// Queue wait is reported but not a metric: sessions queue no jobs
		// and solve's waits all fall in the first histogram bucket, so the
		// rows would read the same on every run.
		r.line("service.queue_wait_ms p50 %.4f, p99 %.4f over %d jobs (GET /v1/stats, merged)",
			stats.Cluster.QueueWait.P50*1e3, stats.Cluster.QueueWait.P99*1e3, stats.Cluster.QueueWait.Count)
		m["cluster.checkpoint_syncs"] = float64(stats.Gateway.CheckpointSyncs) / float64(max(r.sessions, 1))
	} else {
		r.problem(fmt.Errorf("reading gateway /v1/stats: HTTP %d: %v", st, err))
	}
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The resident set is sampled every rssEvery while a workload is measured;
// rss_peak_mb is the rssQuantile of the samples (of those inside the
// result's memFrom..memTo window, when the workload sets one). The single
// highest sample depends on where a garbage collection happened to fall
// relative to a large allocation and swung by a quarter between runs; a
// high quantile of the samples keeps what a run holds at its peaks.
const (
	rssEvery    = 20 * time.Millisecond
	rssQuantile = 0.95
)

type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples rssSamples
}

// rssSamples are resident-set readings in megabytes and when each was taken.
type rssSamples struct {
	at []time.Time
	mb []float64
}

// within returns the readings taken between from and to; zero times leave
// that end open.
func (s rssSamples) within(from, to time.Time) []float64 {
	var out []float64
	for i, t := range s.at {
		if (from.IsZero() || !t.Before(from)) && (to.IsZero() || !t.After(to)) {
			out = append(out, s.mb[i])
		}
	}
	return out
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := rssMB(); !math.IsNaN(v) {
				s.samples.at = append(s.samples.at, time.Now())
				s.samples.mb = append(s.samples.mb, v)
			}
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples.
func (s *rssSampler) stop() rssSamples {
	close(s.quit)
	<-s.done
	return s.samples
}

// rssMB reads the current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeakMB reads the process's peak resident set size.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
