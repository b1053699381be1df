package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// Config sizes the service. The zero value selects the defaults.
type Config struct {
	// Workers is the execution pool size (concurrent jobs). Default 2.
	Workers int
	// QueueCap bounds the admission queue; a full queue rejects with 429.
	// Default 16.
	QueueCap int
	// CacheEntries bounds the result cache. Default 256.
	CacheEntries int
	// DrainTimeout bounds how long Shutdown waits for queued and running
	// jobs before cancelling them. Default 30s.
	DrainTimeout time.Duration
	// Limits bounds what a single request may ask for.
	Limits Limits
	// Logger receives structured job-lifecycle events (submit, start,
	// finish, shed, cancel, drain), each carrying the job ID and type.
	// Default: discard.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// StatsWindow is the span of the rolling telemetry windows behind
	// GET /v1/stats and the SSE stream. Default 60s.
	StatsWindow time.Duration
	// StreamInterval is the default cadence of stats events on
	// GET /v1/stream (overridable per request with ?interval=). Default 1s.
	StreamInterval time.Duration
	// NodeID names this instance inside a cluster. When set, job IDs are
	// prefixed with it (so IDs stay globally unique across shards) and it
	// is reported by /healthz and /v1/stats so a gateway can label
	// federated telemetry. Empty means standalone (no prefix, no label).
	NodeID string
	// FlightEvents sizes the flight-recorder ring (last N events retained
	// for GET /v1/debug/bundle). 0 selects flight.DefaultEvents; negative
	// disables the recorder and the anomaly engine entirely (the nil-safe
	// disabled path).
	FlightEvents int
	// FlightRules configures the anomaly engine; the zero value selects
	// the defaults documented on flight.Rules. Ignored when FlightEvents
	// is negative.
	FlightRules flight.Rules
	// HeartbeatInterval is the cadence of ": heartbeat" SSE comment lines
	// on idle /v1/stream connections, keeping proxies from severing quiet
	// subscribers. Default 15s.
	HeartbeatInterval time.Duration
	// SessionDir enables resumable sessions: the directory holding the
	// checkpoint store and session records (POST /v1/sessions). Empty
	// disables sessions (the routes answer 503). A restarted node rescans
	// the directory and resumes interrupted sessions automatically.
	SessionDir string
	// SessionSegment is the default steps per durable session checkpoint
	// (default 25); SessionRetain the checkpoints kept per session
	// (default 4); SessionWorkers bounds concurrently executing segments
	// (default 1).
	SessionSegment int
	SessionRetain  int
	SessionWorkers int
	// WarmSweeps enables the speculative sweep warmer: stepped-parameter
	// patterns in the interactive submission stream predict their next
	// points, which idle workers pre-execute at background priority so the
	// sweep's next request is a cache hit.
	WarmSweeps bool
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueCap < 1 {
		c.QueueCap = 16
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Limits == (Limits{}) {
		c.Limits = DefaultLimits()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.StatsWindow <= 0 {
		c.StatsWindow = 60 * time.Second
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 15 * time.Second
	}
	return c
}

// Server assembles the stages: handlers admit jobs into the queue, the
// pool executes them, the store and cache deliver results, and metrics
// watch all of it. Construct with New, expose via Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	log     *slog.Logger
	store   *Store
	queue   *Queue
	cache   *Cache
	metrics *Metrics
	tele    *Telemetry
	hub     *telemetry.Hub
	pool    *Pool
	mux     *http.ServeMux
	flight  *flight.Recorder
	engine  *flight.Engine

	// sessions and sessStore are the resumable-session subsystem (nil when
	// Config.SessionDir is empty); warmer is the speculative sweep
	// detector (nil when Config.WarmSweeps is false).
	sessions  *session.Manager
	sessStore *session.Store
	warmer    *session.Warmer

	warmMu       sync.Mutex
	warmInflight map[string]struct{} // cache keys with a background job queued

	baseCtx    context.Context    // parent of every job context
	cancelJobs context.CancelFunc // fired when the drain deadline passes
	draining   atomic.Bool
}

// New builds and starts a server (workers spin up immediately).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	//advect:nolint ctxflow the server root context outlives any request; drain cancels it explicitly
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		store:      NewStore(cfg.NodeID),
		queue:      NewQueue(cfg.QueueCap),
		cache:      NewCache(cfg.CacheEntries),
		metrics:    NewMetrics(time.Now()),
		tele:       NewTelemetry(cfg.StatsWindow, cfg.QueueCap),
		hub:        telemetry.NewHub(),
		baseCtx:    ctx,
		cancelJobs: cancel,
	}
	if cfg.FlightEvents >= 0 {
		// The flight recorder tees the node's own logger so the ring
		// retains recent log history alongside job/stats/anomaly records;
		// the engine watches jobs and windows, surfacing firings on the
		// live stream and freezing the ring for the postmortem bundle.
		s.flight = flight.NewRecorder(cfg.FlightEvents)
		s.log = slog.New(flight.TeeHandler(s.flight, cfg.Logger.Handler()))
		s.engine = flight.NewEngine(cfg.FlightRules, s.flight)
		s.engine.Notify(s.publishAnomaly)
	}
	if cfg.WarmSweeps {
		s.warmer = session.NewWarmer(session.WarmerConfig{})
	}
	if cfg.SessionDir != "" {
		s.openSessions(cfg)
	}
	s.pool = NewPool(cfg.Workers, s.queue, s.runJob)
	s.mux = s.routes()
	if s.engine.Enabled() {
		go s.sweepLoop()
	}
	return s
}

// openSessions wires the resumable-session subsystem: the durable store,
// the manager running segments through the same registry path as one-shot
// jobs, and crash recovery of whatever the store already holds. A store
// that cannot be opened disables sessions (loudly) rather than the node.
func (s *Server) openSessions(cfg Config) {
	store, err := session.Open(cfg.SessionDir)
	if err != nil {
		s.log.Error("sessions disabled", "dir", cfg.SessionDir, "error", err)
		return
	}
	prefix := ""
	if cfg.NodeID != "" {
		prefix = cfg.NodeID + "-"
	}
	mgr, err := session.NewManager(session.Config{
		Store: store, Run: runKind,
		Segment: cfg.SessionSegment, Retain: cfg.SessionRetain,
		Workers:  cfg.SessionWorkers,
		IDPrefix: prefix, Notify: s.publishSession, Logger: s.log,
	})
	if err != nil {
		s.log.Error("sessions disabled", "dir", cfg.SessionDir, "error", err)
		return
	}
	s.sessStore = store
	s.sessions = mgr
	if n, err := mgr.Recover(); err != nil {
		s.log.Warn("session recovery scan failed", "error", err)
	} else if n > 0 {
		s.log.Info("sessions recovered", "resumed", n)
	}
}

// publishAnomaly surfaces one engine firing: a warning on the node log
// (which the tee handler also folds into the flight ring) and an
// "anomaly" event on the live SSE stream.
func (s *Server) publishAnomaly(a flight.Anomaly, _ flight.Snapshot) {
	s.log.Warn("anomaly detected", "rule", a.Rule, "job", a.JobID,
		"trace_id", a.TraceID, "value", a.Value, "bound", a.Bound,
		"detail", a.Message)
	data, err := json.Marshal(a)
	if err != nil {
		return
	}
	s.hub.Publish(telemetry.Event{Name: "anomaly", Data: data})
}

// flightSweepInterval is the cadence of the anomaly engine's windowed-rule
// evaluation; every statsEveryNSweeps-th sweep also lands a stats record
// in the flight ring.
const (
	flightSweepInterval = time.Second
	statsEveryNSweeps   = 15
)

// sweepLoop periodically evaluates the windowed anomaly rules and drops a
// stats heartbeat into the flight ring, until the server's root context is
// cancelled at the end of a drain.
func (s *Server) sweepLoop() {
	tick := time.NewTicker(flightSweepInterval)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-tick.C:
			s.engine.Sweep(now)
			n++
			if n%statsEveryNSweeps == 0 {
				s.flight.Stats(now, fmt.Sprintf("queue %d/%d busy %d/%d",
					s.queue.Depth(), s.queue.Cap(), s.pool.Busy(), s.pool.Workers()))
			}
		}
	}
}

// jobArgs assembles the shared slog attributes of a job's lifecycle lines:
// job id, type, and — when the job belongs to a cluster-wide trace — its
// trace id, so flight-recorder log records correlate with traces.
func jobArgs(j *Job, extra ...any) []any {
	args := make([]any, 0, 6+len(extra))
	args = append(args, "job", j.id, "type", j.req.Type)
	if j.traceID != "" {
		args = append(args, "trace_id", j.traceID)
	}
	return append(args, extra...)
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Submit validates and admits a request, serving it from the result cache
// when possible. It returns the job and, on rejection, a non-nil error:
// ErrQueueFull (429) or ErrDraining (503).
func (s *Server) Submit(req Request) (*Job, error) {
	return s.SubmitTraced(req, nil)
}

// SubmitTraced is Submit carrying an optional upstream trace context (the
// decoded X-Advect-Trace header): a traced job's recorder absorbs the
// sender's span log — rebased onto this job's epoch, with the hop
// annotated — so the stitched export spans gateway routing and the local
// lifecycle on one timeline. A nil context is a plain submission.
func (s *Server) SubmitTraced(req Request, tc *obs.TraceContext) (*Job, error) {
	if err := req.Validate(s.cfg.Limits); err != nil {
		return nil, &RequestError{Err: err}
	}
	if s.draining.Load() {
		s.metrics.CountJob(req.Type, outcomeRejected)
		s.engine.ObserveShed(time.Now())
		args := []any{"type", req.Type, "reason", "draining"}
		if tc != nil && tc.TraceID != "" {
			args = append(args, "trace_id", tc.TraceID)
		}
		s.log.Warn("job shed", args...)
		return nil, ErrDraining
	}
	now := time.Now()
	j := newJob(s.store.NewID(), req, s.baseCtx, now)
	if tc != nil && j.rec != nil {
		j.traceID = tc.TraceID
		j.rec.Import(tc)
	}
	lookup := j.rec.Begin(obs.RankService, -1, obs.PhaseCacheLookup, "")
	doc, hit := s.cache.Get(j.cacheKey)
	lookup.End()
	if hit {
		// A cache hit never ran under this job's recorder, so the stitched
		// trace would be service-only noise; drop it.
		j.rec = nil
		j.completeFromCache(doc, now)
		s.store.Add(j)
		s.metrics.CountJob(req.Type, outcomeSubmitted)
		s.metrics.CountJob(req.Type, outcomeCached)
		warmed := s.warmer.WasWarmed(j.cacheKey) // counts a warmer hit
		s.log.Info("job submitted", jobArgs(j, "cache_hit", true, "warmed", warmed)...)
		s.publishJob(j)
		s.warmFromSubmit(req)
		return j, nil
	}
	// TryPush hands the job to a worker, which reads queuedAt and appends
	// to the recorder: finish the per-job setup before publishing it.
	j.queuedAt = j.rec.Clock()
	j.rec.Add(obs.RankService, -1, obs.PhaseHTTPReceive, "", 0, j.queuedAt)
	if !s.queue.TryPush(j) {
		s.metrics.CountJob(req.Type, outcomeRejected)
		s.engine.ObserveShed(now)
		s.log.Warn("job shed", jobArgs(j, "reason", "queue full",
			"queue_depth", s.queue.Depth())...)
		return nil, ErrQueueFull
	}
	s.store.Add(j)
	s.metrics.CountJob(req.Type, outcomeSubmitted)
	s.tele.RecordDepth(now, s.queue.Depth())
	s.log.Info("job submitted", jobArgs(j, "cache_hit", false)...)
	s.publishJob(j)
	s.warmFromSubmit(req)
	return j, nil
}

// publishJob emits a job lifecycle event on the live stream and the
// flight ring.
func (s *Server) publishJob(j *Job) {
	v := j.View()
	s.flight.Job(time.Now(), v.ID, v.TraceID, string(v.State))
	data, err := json.Marshal(map[string]any{
		"id": v.ID, "type": v.Type, "state": v.State,
	})
	if err != nil {
		return
	}
	s.hub.Publish(telemetry.Event{Name: "job", Data: data})
}

// runJob is the worker loop body: claim, execute under the job context,
// land the terminal state, feed the cache and the metrics.
func (s *Server) runJob(j *Job) {
	claimed := time.Now()
	if !j.claim(claimed) {
		// Cancelled while queued: the job never ran, so it gets no exec
		// span and feeds no latency window — only the outcome counter and
		// the terminal-state event the poller and the stream both see.
		s.metrics.CountJob(j.req.Type, outcomeCancelled)
		if j.background {
			s.releaseWarm(j.cacheKey)
			s.warmer.NoteShed()
		}
		s.log.Info("job skipped", jobArgs(j, "state", j.State(), "reason", "cancelled while queued")...)
		s.publishJob(j)
		return
	}
	if !j.background {
		j.rec.Add(obs.RankService, -1, obs.PhaseQueueWait, "", j.queuedAt, j.rec.Clock())
		s.tele.RecordQueueWait(claimed, claimed.Sub(j.submitted))
		s.tele.RecordDepth(claimed, s.queue.Depth())
	}
	s.log.Info("job started", jobArgs(j, "background", j.background)...)
	s.publishJob(j)
	start := time.Now()
	exec := j.rec.Begin(obs.RankService, -1, obs.PhaseWorkerExec, "")
	doc, err := execute(j.ctx, j.req, j.rec, j.id)
	exec.End()
	elapsed := time.Since(start)
	now := time.Now()
	if j.background {
		s.finishBackground(j, doc, err, elapsed, now)
		return
	}
	switch {
	case err == nil:
		j.finish(StateDone, doc, "", now)
		s.cache.Put(j.cacheKey, doc)
		s.metrics.CountJob(j.req.Type, outcomeDone)
		s.metrics.ObserveLatency(j.req.Type, elapsed)
		s.tele.RecordExec(now, j.req.Type, elapsed)
		if sr := j.req.Simulate; j.req.Type == TypeSimulate && sr != nil {
			n := float64(sr.N)
			s.tele.RecordPoints(now, n*n*n*float64(sr.Steps))
		}
		var rep *obs.Report
		if j.rec != nil {
			// The pair totals here match the report embedded in the result
			// document exactly: the service-level spans recorded since are
			// not part of any overlap pair.
			r := obs.BuildReport(j.rec.Spans())
			rep = &r
			s.tele.RecordOverlap(now, rep)
			s.flight.Span(now, j.id, j.traceID,
				fmt.Sprintf("%d spans over %d ranks", rep.Spans, len(rep.Ranks)))
		}
		s.observeJob(now, j, elapsed, rep)
		s.log.Info("job finished", jobArgs(j, "state", StateDone, "duration", elapsed)...)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCancelled, nil, err.Error(), now)
		s.metrics.CountJob(j.req.Type, outcomeCancelled)
		s.log.Info("job finished", jobArgs(j, "state", StateCancelled, "duration", elapsed)...)
	default:
		j.finish(StateFailed, nil, err.Error(), now)
		s.metrics.CountJob(j.req.Type, outcomeFailed)
		s.log.Error("job finished", jobArgs(j, "state", StateFailed, "duration", elapsed, "error", err)...)
	}
	s.publishJob(j)
}

// finishBackground lands a speculative pre-execution. A completed one
// seeds the cache and is remembered by the warmer so the matching
// interactive submission counts as a warmer hit; failures and
// cancellations just land — background work never feeds the interactive
// telemetry windows or the anomaly engine.
func (s *Server) finishBackground(j *Job, doc json.RawMessage, err error, elapsed time.Duration, now time.Time) {
	s.releaseWarm(j.cacheKey)
	switch {
	case err == nil:
		j.finish(StateDone, doc, "", now)
		s.cache.Put(j.cacheKey, doc)
		s.warmer.MarkWarmed(j.cacheKey)
		s.metrics.CountJob(j.req.Type, outcomeDone)
		s.log.Info("job finished", jobArgs(j, "state", StateDone, "duration", elapsed, "background", true)...)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCancelled, nil, err.Error(), now)
		s.metrics.CountJob(j.req.Type, outcomeCancelled)
		s.warmer.NoteShed()
		s.log.Info("job finished", jobArgs(j, "state", StateCancelled, "duration", elapsed, "background", true)...)
	default:
		j.finish(StateFailed, nil, err.Error(), now)
		s.metrics.CountJob(j.req.Type, outcomeFailed)
		s.log.Warn("job finished", jobArgs(j, "state", StateFailed, "duration", elapsed, "background", true, "error", err)...)
	}
	s.publishJob(j)
}

// observeJob feeds one successfully finished job to the anomaly engine,
// carrying the shape parameters the model-drift rule scores against the
// perf model and the traced report (nil when untraced) the straggler and
// drift rules read.
func (s *Server) observeJob(now time.Time, j *Job, elapsed time.Duration, rep *obs.Report) {
	if !s.engine.Enabled() {
		return
	}
	sample := flight.JobSample{
		JobID: j.id, TraceID: j.traceID, Type: j.req.Type,
		Elapsed: elapsed, Report: rep,
	}
	if sr := j.req.Simulate; j.req.Type == TypeSimulate && sr != nil {
		sample.Kind = sr.Kind
		sample.N = sr.N
		sample.Tasks = sr.Tasks
		sample.Threads = sr.Threads
	}
	s.engine.ObserveJob(now, sample)
}

// RetryAfter estimates how long a rejected client should wait: the queue
// is full, so roughly one queue's worth of work per pool, using the mean
// completed-job latency (1s before any job completes), clamped to [1, 60]
// seconds.
func (s *Server) RetryAfter() time.Duration {
	mean, ok := s.metrics.MeanLatency()
	if !ok {
		mean = time.Second
	}
	wait := time.Duration(float64(mean) * float64(s.queue.Depth()+1) / float64(s.pool.Workers()))
	if wait < time.Second {
		wait = time.Second
	}
	if wait > time.Minute {
		wait = time.Minute
	}
	return wait
}

// MetricsSnapshot assembles the current metrics document, including a
// fresh process-health reading.
func (s *Server) MetricsSnapshot() Snapshot {
	snap := s.metrics.Snapshot(
		time.Now(),
		QueueGauges{Depth: s.queue.Depth(), Capacity: s.queue.Cap()},
		WorkerGauges{Busy: s.pool.Busy(), Total: s.pool.Workers()},
		s.cache.Stats(),
	)
	snap.Proc = telemetry.ReadProc()
	return snap
}

// StatsSnapshot assembles the rolling-window telemetry document.
func (s *Server) StatsSnapshot() TelemetryStats {
	st := s.tele.Stats(
		time.Now(),
		QueueGauges{Depth: s.queue.Depth(), Capacity: s.queue.Cap()},
		WorkerGauges{Busy: s.pool.Busy(), Total: s.pool.Workers()},
	)
	st.Node = s.cfg.NodeID
	if s.engine.Enabled() {
		a := s.engine.Anomalies()
		st.Anomalies = &a
	}
	if s.sessions != nil {
		sst := s.sessions.Stats()
		st.Sessions = &sst
	}
	if s.warmer != nil {
		wst := s.warmer.Stats()
		st.Warmer = &wst
	}
	return st
}

// Shutdown drains the service: admission stops (new submissions get 503),
// queued and running jobs are given the drain timeout to finish, and any
// still running at the deadline are cancelled through their contexts (the
// implementations stop between timesteps). It returns nil on a clean
// drain, or an error naming the jobs that had to be cancelled.
func (s *Server) Shutdown() error {
	s.draining.Store(true)
	if s.sessions != nil {
		// Session shutdown is deliberately crash-shaped: in-flight segments
		// are cancelled, records stay "running" on disk, and the next
		// process resumes them from their last durable checkpoint — the
		// same path an actual crash takes, exercised on every restart.
		s.sessions.Close()
	}
	s.queue.Close()
	s.log.Info("drain started", "timeout", s.cfg.DrainTimeout)
	done := make(chan struct{})
	go func() {
		s.pool.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelJobs()
		s.hub.Close()
		s.log.Info("drain finished", "clean", true)
		return nil
	case <-time.After(s.cfg.DrainTimeout):
		s.cancelJobs()
		<-done
		s.hub.Close()
		s.log.Warn("drain finished", "clean", false, "timeout", s.cfg.DrainTimeout)
		return fmt.Errorf("service: drain deadline %v exceeded; in-flight jobs were cancelled", s.cfg.DrainTimeout)
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ErrQueueFull is returned by Submit when the admission queue is full; the
// HTTP layer turns it into 429 with a Retry-After header.
var ErrQueueFull = errors.New("service: queue full")

// ErrDraining is returned by Submit once shutdown has begun (503).
var ErrDraining = errors.New("service: shutting down")

// RequestError marks a malformed request (400).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// writeJSON serializes a response document.
func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
