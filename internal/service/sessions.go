package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// SessionRequest is the body of POST /v1/sessions: a simulate payload
// whose steps are the session's whole trajectory, plus the segmentation of
// that trajectory into durable checkpoints.
type SessionRequest struct {
	Simulate *SimulateRequest `json:"simulate"`
	// Segment is the steps integrated between durable checkpoints (node
	// default when 0); Retain bounds the checkpoints kept (node default
	// when 0).
	Segment int `json:"segment,omitempty"`
	Retain  int `json:"retain,omitempty"`
	// TraceID carries a cluster-wide correlation id across failover, so a
	// session resumed on a survivor stays one logical trace.
	TraceID string `json:"trace_id,omitempty"`
	// Checkpoint, when set (base64 in JSON), seeds the session at an
	// already-integrated step from raw checkpoint bytes — the failover
	// path: a gateway re-creates a dead owner's session on a survivor from
	// the replicated checkpoint.
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// Validate checks the session request against the node's limits.
func (r *SessionRequest) Validate(lim Limits) error {
	if r.Simulate == nil {
		return fmt.Errorf("session requires the simulate payload")
	}
	if err := r.Simulate.validate(lim); err != nil {
		return err
	}
	if r.Simulate.Steps < 1 {
		return fmt.Errorf("session needs at least one step")
	}
	if r.Simulate.Trace {
		return fmt.Errorf("sessions do not support trace (segments run untraced; use trace_id for cluster correlation)")
	}
	if r.Segment < 0 || r.Segment > r.Simulate.Steps {
		return fmt.Errorf("segment %d out of range [0, %d]", r.Segment, r.Simulate.Steps)
	}
	if r.Retain < 0 {
		return fmt.Errorf("retain %d < 0", r.Retain)
	}
	return nil
}

// scenario converts the validated request into a session scenario.
func (r *SessionRequest) scenario() (session.Scenario, error) {
	kind, err := core.ParseKind(r.Simulate.Kind)
	if err != nil {
		return session.Scenario{}, err
	}
	return session.Scenario{
		Kind: kind, Problem: r.Simulate.problem(), Options: r.Simulate.options(),
		Segment: r.Segment, Retain: r.Retain, TraceID: r.TraceID,
	}, nil
}

// SessionFingerprint computes the content-addressed identity a session
// created from req would get — the key a cluster gateway shards sessions
// by, and the prefix of its checkpoint files in the store.
func SessionFingerprint(req SessionRequest) (string, error) {
	if req.Simulate == nil {
		return "", fmt.Errorf("session requires the simulate payload")
	}
	sc, err := req.scenario()
	if err != nil {
		return "", err
	}
	sc.Options = sc.Options.Normalize()
	return sc.Fingerprint(), nil
}

// ForkRequest is the body of POST /v1/sessions/{id}/fork: where to branch
// and what to vary. Unset fields inherit the parent; pointers distinguish
// "leave alone" from an explicit zero.
type ForkRequest struct {
	// AtStep selects the retained checkpoint to branch from; nil or
	// negative selects the newest.
	AtStep *int64 `json:"at_step,omitempty"`
	// TotalSteps is the child's whole trajectory length (parent total when
	// 0); it must extend past the fork point.
	TotalSteps   int64   `json:"total_steps,omitempty"`
	Tasks        *int    `json:"tasks,omitempty"`
	Threads      *int    `json:"threads,omitempty"`
	BlockX       *int    `json:"blockx,omitempty"`
	BlockY       *int    `json:"blocky,omitempty"`
	BoxThickness *int    `json:"thickness,omitempty"`
	HaloWidth    *int    `json:"halowidth,omitempty"`
	TasksPerGPU  *int    `json:"taskspergpu,omitempty"`
	GPU          *string `json:"gpu,omitempty"`
	Verify       *bool   `json:"verify,omitempty"`
}

// options merges the fork's overrides onto the parent's options.
func (fr *ForkRequest) options(parent core.Options) (core.Options, error) {
	o := parent
	setInt := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setInt(&o.Tasks, fr.Tasks)
	setInt(&o.Threads, fr.Threads)
	setInt(&o.BlockX, fr.BlockX)
	setInt(&o.BlockY, fr.BlockY)
	setInt(&o.BoxThickness, fr.BoxThickness)
	setInt(&o.HaloWidth, fr.HaloWidth)
	setInt(&o.TasksPerGPU, fr.TasksPerGPU)
	if fr.GPU != nil {
		gpu, err := parseGPU(*fr.GPU)
		if err != nil {
			return o, err
		}
		o.GPU = gpu
	}
	if fr.Verify != nil {
		o.Verify = *fr.Verify
	}
	return o, nil
}

// SessionsEnabled reports whether this node runs a session manager.
func (s *Server) SessionsEnabled() bool { return s.sessions != nil }

// sessionsDisabled answers every session route on a node without a store.
func (s *Server) sessionsDisabled(w http.ResponseWriter) bool {
	if s.sessions != nil {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable,
		errorDoc{Error: "sessions disabled (start the node with a session directory)"})
	return true
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	var req SessionRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad request body: " + err.Error()})
		return
	}
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.DrainTimeout.Seconds()+0.5)))
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: ErrDraining.Error()})
		return
	}
	if err := req.Validate(s.cfg.Limits); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	sc, err := req.scenario()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	var sess *session.Session
	if len(req.Checkpoint) > 0 {
		sess, err = s.sessions.CreateSeeded(sc, req.Checkpoint)
	} else {
		sess, err = s.sessions.Create(sc)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, sess.View())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	views := s.sessions.List()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": views})
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown session"})
		return
	}
	writeJSON(w, http.StatusOK, sess.View())
}

func (s *Server) handleSessionPause(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	id := r.PathValue("id")
	sess, ok := s.sessions.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown session"})
		return
	}
	if err := s.sessions.Pause(id); err != nil {
		writeJSON(w, http.StatusConflict, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, sess.View())
}

func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	id := r.PathValue("id")
	sess, ok := s.sessions.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown session"})
		return
	}
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: ErrDraining.Error()})
		return
	}
	if err := s.sessions.Resume(id); err != nil {
		writeJSON(w, http.StatusConflict, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, sess.View())
}

func (s *Server) handleSessionFork(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	id := r.PathValue("id")
	parent, ok := s.sessions.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown session"})
		return
	}
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: ErrDraining.Error()})
		return
	}
	var fr ForkRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fr); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad request body: " + err.Error()})
		return
	}
	opts, err := fr.options(parent.Scenario().Options)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	atStep := int64(-1)
	if fr.AtStep != nil {
		atStep = *fr.AtStep
	}
	child, err := s.sessions.Fork(id, atStep, opts, fr.TotalSteps)
	if err != nil {
		writeJSON(w, http.StatusConflict, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, child.View())
}

// handleSessionCheckpoint serves a session's newest durable checkpoint as
// raw bytes (?step= selects an older retained one) — the replication
// surface a cluster gateway pulls so a session survives its owner's death.
func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown session"})
		return
	}
	fp := sess.Fingerprint()
	var step int64
	if q := r.URL.Query().Get("step"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad step: " + err.Error()})
			return
		}
		step = n
	} else {
		latest, ok := s.sessStore.Latest(fp)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "session has no durable checkpoint yet"})
			return
		}
		step = latest
	}
	data, err := s.sessStore.CheckpointBytes(fp, step)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "checkpoint not retained: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(SessionStepHeader, strconv.FormatInt(step, 10))
	w.Header().Set(SessionFPHeader, fp)
	_, _ = w.Write(data)
}

// Checkpoint response headers: the step the served checkpoint stands at
// and the session fingerprint its file is addressed by.
const (
	SessionStepHeader = "X-Advect-Session-Step"
	SessionFPHeader   = "X-Advect-Session-Fp"
)

// publishSession fans one session lifecycle event out to the live SSE
// stream and the flight ring, and feeds recoveries to the anomaly engine's
// resume-loop rule.
func (s *Server) publishSession(ev session.Event) {
	now := time.Now()
	s.flight.Job(now, ev.Session.ID, ev.Session.TraceID, ev.Type)
	if ev.Type == session.EventRecovered || ev.Type == session.EventResumed {
		s.engine.ObserveResume(now, ev.Session.ID, ev.Session.DoneSteps)
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.hub.Publish(telemetry.Event{Name: "session", Data: data})
}

// runKind is the session manager's runner: the same registry path as a
// one-shot simulate job, minus the recorder (segments run untraced).
func runKind(ctx context.Context, kind core.Kind, p core.Problem, o core.Options) (*core.Result, error) {
	r, err := core.New(kind)
	if err != nil {
		return nil, err
	}
	o.Ctx = ctx
	return r.Run(p, o)
}

// warmFields is the fixed numeric-parameter order the sweep detector
// watches; warmBase is the request's non-numeric identity. Together they
// make "the same request except one stepping number" land on one track.
func warmVector(sr *SimulateRequest) (string, []float64) {
	base := "sim|" + sr.Kind + "|" + sr.GPU
	if sr.Verify {
		base += "|v"
	}
	if sr.Trace {
		base += "|t"
	}
	return base, []float64{
		float64(sr.N), float64(sr.Steps), sr.Nu,
		float64(sr.Tasks), float64(sr.Threads),
		float64(sr.BlockX), float64(sr.BlockY),
		float64(sr.BoxThickness), float64(sr.HaloWidth),
		float64(sr.TasksPerGPU),
	}
}

// applyWarmField writes a predicted value back into its request field,
// reporting false for predictions that cannot name a real request (a
// fractional or negative value in an integer field).
func applyWarmField(sr *SimulateRequest, field int, v float64) bool {
	if field != 2 { // every field but Nu is an integer
		if v != math.Trunc(v) || v < 0 || v > math.MaxInt32 {
			return false
		}
	}
	switch field {
	case 0:
		sr.N = int(v)
	case 1:
		sr.Steps = int(v)
	case 2:
		if v < 0 {
			return false
		}
		sr.Nu = v
	case 3:
		sr.Tasks = int(v)
	case 4:
		sr.Threads = int(v)
	case 5:
		sr.BlockX = int(v)
	case 6:
		sr.BlockY = int(v)
	case 7:
		sr.BoxThickness = int(v)
	case 8:
		sr.HaloWidth = int(v)
	case 9:
		sr.TasksPerGPU = int(v)
	default:
		return false
	}
	return true
}

// warmFromSubmit feeds one interactive simulate submission to the sweep
// detector and pre-executes whatever it predicts at background priority.
// Called after the submission has been admitted (never for background
// jobs, so warming cannot feed back into itself).
func (s *Server) warmFromSubmit(req Request) {
	if s.warmer == nil || req.Type != TypeSimulate || req.Simulate == nil {
		return
	}
	base, fields := warmVector(req.Simulate)
	for _, p := range s.warmer.Observe(base, fields) {
		next := *req.Simulate
		if !applyWarmField(&next, p.Field, p.Value) {
			s.warmer.NoteShed()
			continue
		}
		s.SubmitBackground(Request{Type: TypeSimulate, Simulate: &next})
	}
}

// SubmitBackground admits a speculative pre-execution on the queue's
// background lane. It is deliberately eager to give up — validation
// failure, draining, already cached, already in flight, or a full lane
// all shed the prediction (counted by the warmer). Speculation never
// displaces interactive work: Pop hands a background job only to a
// worker with no foreground job waiting.
func (s *Server) SubmitBackground(req Request) (*Job, bool) {
	if err := req.Validate(s.cfg.Limits); err != nil {
		s.warmer.NoteShed()
		return nil, false
	}
	if s.draining.Load() {
		s.warmer.NoteShed()
		return nil, false
	}
	key := req.CacheKey()
	if _, hit := s.cache.Peek(key); hit {
		s.warmer.NoteShed()
		return nil, false
	}
	if !s.claimWarm(key) {
		s.warmer.NoteShed()
		return nil, false
	}
	now := time.Now()
	j := newJob(s.store.NewID(), req, s.baseCtx, now)
	j.background = true
	if !s.queue.TryPushBackground(j) {
		s.releaseWarm(key)
		s.warmer.NoteShed()
		return nil, false
	}
	s.store.Add(j)
	s.metrics.CountJob(req.Type, outcomeSubmitted)
	s.log.Info("job submitted", jobArgs(j, "background", true)...)
	s.publishJob(j)
	return j, true
}

// claimWarm marks a cache key as having a background pre-execution in
// flight; a second prediction of the same point is shed instead of queued
// twice.
func (s *Server) claimWarm(key string) bool {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warmInflight == nil {
		s.warmInflight = make(map[string]struct{})
	}
	if _, ok := s.warmInflight[key]; ok {
		return false
	}
	s.warmInflight[key] = struct{}{}
	return true
}

func (s *Server) releaseWarm(key string) {
	s.warmMu.Lock()
	delete(s.warmInflight, key)
	s.warmMu.Unlock()
}
