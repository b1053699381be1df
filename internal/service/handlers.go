package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
)

// errorDoc is the JSON error envelope.
type errorDoc struct {
	Error string `json:"error"`
}

// routes builds the HTTP API.
//
//	POST   /v1/jobs             submit a job (202 queued; 200 on a cache hit)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result document (202 while pending)
//	GET    /v1/jobs/{id}/trace  stitched Chrome trace of a traced job
//	GET    /v1/jobs/{id}/spans  raw span log as a trace context (cluster harvest)
//	DELETE /v1/jobs/{id}        cancel
//	POST   /v1/sessions         start a resumable checkpointed session (202)
//	GET    /v1/sessions         list sessions
//	GET    /v1/sessions/{id}    session status (done/total steps, checkpoint, hash)
//	POST   /v1/sessions/{id}/pause   pause (rolls back to the last durable checkpoint)
//	POST   /v1/sessions/{id}/resume  resume a paused session
//	POST   /v1/sessions/{id}/fork    branch from a retained checkpoint with mutated options
//	GET    /v1/sessions/{id}/checkpoint  raw newest checkpoint bytes (cluster replication)
//	GET    /v1/stats            rolling-window telemetry (last N seconds)
//	GET    /v1/stream           live SSE stream of job events and stats
//	GET    /v1/kinds            implementation catalogue
//	GET    /v1/experiments      experiment catalogue
//	GET    /v1/cache/{key}      peek the result cache (cluster affinity probe)
//	PUT    /v1/cache/{key}      seed the result cache (cluster replication)
//	POST   /v1/drain            begin a graceful drain (cluster rebalance)
//	GET    /v1/debug/bundle     postmortem bundle (flight ring, anomalies, profiles)
//	GET    /metrics             Prometheus text (JSON with ?format=json)
//	GET    /healthz             liveness (503 while draining)
//	GET    /debug/pprof/        Go profiling endpoints (Config.EnablePprof)
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleSpans)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	mux.HandleFunc("POST /v1/sessions/{id}/pause", s.handleSessionPause)
	mux.HandleFunc("POST /v1/sessions/{id}/resume", s.handleSessionResume)
	mux.HandleFunc("POST /v1/sessions/{id}/fork", s.handleSessionFork)
	mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", s.handleSessionCheckpoint)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCachePeek)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/debug/bundle", s.handleBundle)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// SubmitStatus is the HTTP status of an accepted submission: 200 when
// the result was served from the cache, 202 for a fresh job. It is
// decided by the cache lookup alone, so a fresh job that happens to
// finish before the response is written still answers 202.
func SubmitStatus(v View) int {
	if v.CacheHit {
		return http.StatusOK
	}
	return http.StatusAccepted
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad request body: " + err.Error()})
		return
	}
	// A malformed trace context never fails the submission — tracing is
	// best-effort observability, so the job proceeds untraced-from-upstream.
	tc, terr := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader))
	if terr != nil {
		s.log.Warn("ignoring malformed trace context", "error", terr)
	}
	j, err := s.SubmitTraced(req, tc)
	switch {
	case err == nil:
		v := j.View()
		writeJSON(w, SubmitStatus(v), v)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter().Seconds()+0.5)))
		writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		// Retry-After on the drain 503 mirrors the 429 contract: a gateway
		// reads it to decide between failing over to another shard (always,
		// for a drain) and how long a standalone client should back off —
		// roughly the time the drain needs to finish and a restart to land.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.DrainTimeout.Seconds()+0.5)))
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
	default:
		var re *RequestError
		if errors.As(err, &re) {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.List()
	views := make([]View, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	if doc, ok := j.Result(); ok {
		// ?embed_trace=1 restores the legacy inline form for clients that
		// predate GET /v1/jobs/{id}/trace.
		if r.URL.Query().Get("embed_trace") == "1" && j.Trace() != nil {
			doc = embedTrace(doc, j.Trace())
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(doc)
		return
	}
	v := j.View()
	switch v.State {
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: v.Error})
	case StateCancelled:
		writeJSON(w, http.StatusGone, errorDoc{Error: "job cancelled"})
	default: // queued or running: poll again
		writeJSON(w, http.StatusAccepted, v)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	if !j.Cancel(time.Now()) {
		writeJSON(w, http.StatusConflict, errorDoc{Error: "job already finished"})
		return
	}
	s.log.Info("job cancelled", jobArgs(j)...)
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	type kindDoc struct {
		ID       string `json:"id"`
		Section  string `json:"section"`
		Describe string `json:"describe"`
	}
	var kinds []kindDoc
	for _, k := range append(core.Kinds(), core.WideHaloExt) {
		kinds = append(kinds, kindDoc{ID: k.String(), Section: k.Section(), Describe: k.Describe()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"kinds": kinds})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expDoc struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		PaperRef string `json:"paper_ref"`
	}
	var exps []expDoc
	for _, e := range append(harness.All(), harness.Extensions()...) {
		exps = append(exps, expDoc{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": exps})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.MetricsSnapshot()
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(snap.Prometheus()))
}

// handleHealthz is drain-aware: once Shutdown begins it answers 503 so load
// balancers stop routing to an instance that will refuse new jobs anyway.
// Inside a cluster the body also names the node, letting a gateway verify
// it is talking to the member it thinks it is.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{"status": "ok"}
	if s.cfg.NodeID != "" {
		doc["node"] = s.cfg.NodeID
	}
	if s.Draining() {
		doc["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleCachePeek serves the raw cached result document for a cache key, or
// 404. It reads without promoting the entry or counting a hit/miss, so a
// cluster gateway probing sibling shards for a result (cache affinity after
// a membership change) never distorts this node's own cache statistics.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.cache.Peek(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "cache miss"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(doc)
}

// maxCacheSeedBytes bounds a PUT /v1/cache body; result documents are tens
// of kilobytes, so 8 MiB is generous without letting a peer exhaust memory.
const maxCacheSeedBytes = 8 << 20

// handleCachePut seeds the result cache under the given key — the
// replication half of cross-node cache peeking: when a gateway finds a
// result on a sibling shard it copies the document to the key's new owner,
// so the very next identical submit hits locally.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxCacheSeedBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "read body: " + err.Error()})
		return
	}
	if len(body) > maxCacheSeedBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorDoc{Error: "cache document too large"})
		return
	}
	if !json.Valid(body) {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "cache document is not valid JSON"})
		return
	}
	s.cache.Put(r.PathValue("key"), json.RawMessage(body))
	w.WriteHeader(http.StatusNoContent)
}

// handleDrain begins a graceful drain without waiting for it: admission
// stops (and /healthz flips to 503 draining) immediately, while queued and
// running jobs keep executing and stay pollable on this node until they
// finish. A cluster gateway uses this to rebalance a shard away — in-flight
// work lands normally, new traffic reroutes — before the process exits.
// Idempotent: repeated drains report the current state.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	already := s.Draining()
	if !already {
		// The drain deliberately outlives this request: it is the process
		// shutdown path and ends when the worker pool does, so it cannot be
		// tied to the request context. A failed drain names the jobs the
		// deadline cancelled; losing that to a blank identifier would leave
		// no record of which work was cut short.
		go func() { //advect:nolint goroutinelife drain outlives the request by design and ends when the pool empties; its error is logged below
			if err := s.Shutdown(); err != nil {
				s.log.Error("drain failed", "err", err)
			}
		}()
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"status": "draining", "already_draining": already,
	})
}

// handleTrace serves a traced job's stitched Chrome trace-event JSON: the
// service-level request lifecycle (RankService) and the runner's per-rank
// phases, on one timeline anchored at the submit instant. Loadable in
// ui.perfetto.dev. The trace reflects spans recorded so far, so a running
// job yields a partial (but valid) trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	rec := j.Trace()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{
			Error: "job has no trace (submit with simulate.trace=true; cache hits carry no trace)",
		})
		return
	}
	spans := rec.Spans()
	// Inside a cluster, attribute this node's own spans so the export
	// keeps them apart from imported gateway spans and any spans harvested
	// from a prior owner. Gateway spans stay node-less: there is one
	// gateway timeline regardless of which node serves the trace.
	if s.cfg.NodeID != "" {
		for i := range spans {
			if spans[i].Node == "" && spans[i].Rank != obs.RankGateway {
				spans[i].Node = s.cfg.NodeID
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteChromeTrace(w, spans)
}

// handleSpans serves a traced job's raw span log as a wire trace context
// (sender epoch + spans). This is the cluster harvest surface: when a node
// dies mid-job, the gateway pulls whatever the old owner recorded — if it
// is still answering — and folds it into the resubmission's context, so
// the final trace shows both the lost attempt and the rerun.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	rec := j.Trace()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "job has no trace"})
		return
	}
	writeJSON(w, http.StatusOK, rec.TraceContext(j.TraceID()))
}

// handleStats serves the rolling-window telemetry document.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// embedTrace injects the chrome_trace blob into an already-rendered result
// document, reproducing the pre-trace_url result shape.
func embedTrace(doc json.RawMessage, rec *obs.Recorder) json.RawMessage {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		return doc
	}
	var trace bytes.Buffer
	if err := rec.WriteChromeTrace(&trace); err != nil {
		return doc
	}
	m["chrome_trace"] = json.RawMessage(bytes.TrimSpace(trace.Bytes()))
	out, err := json.Marshal(m)
	if err != nil {
		return doc
	}
	return out
}
