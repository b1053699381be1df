package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// errorDoc matches the per-node JSON error envelope, extended with routing
// attribution: which shard (or shards, for a cluster-wide shed) the
// gateway was talking to when the request failed, and how many dispatches
// it spent.
type errorDoc struct {
	Error    string   `json:"error"`
	Node     string   `json:"node,omitempty"`
	Nodes    []string `json:"nodes,omitempty"`
	Attempts int      `json:"attempts,omitempty"`
}

// routes builds the gateway HTTP API. The job surface mirrors a single
// advectd node — clients talk to the cluster exactly as they would to one
// process — plus cluster-level membership and drain controls.
//
//	POST   /v1/jobs               submit (routed to the owner shard)
//	GET    /v1/jobs               merged job list across nodes
//	GET    /v1/jobs/{id}          job status (proxied, node-labelled)
//	GET    /v1/jobs/{id}/result   result document (proxied)
//	GET    /v1/jobs/{id}/trace    stitched Chrome trace (proxied)
//	GET    /v1/jobs/{id}/spans    raw span log / wire trace context (proxied)
//	DELETE /v1/jobs/{id}          cancel (proxied)
//	POST   /v1/sessions           create a resumable session (routed by fingerprint)
//	GET    /v1/sessions           merged session list across nodes
//	GET    /v1/sessions/{id}      session status (proxied, follows failover)
//	POST   /v1/sessions/{id}/pause   pause (proxied)
//	POST   /v1/sessions/{id}/resume  resume (proxied)
//	POST   /v1/sessions/{id}/fork    fork from a retained checkpoint (proxied)
//	GET    /v1/sessions/{id}/checkpoint  raw checkpoint bytes (proxied)
//	GET    /v1/stats              federated rolling-window telemetry
//	GET    /v1/stream             federated SSE stream (node-labelled)
//	GET    /v1/kinds              implementation catalogue (any up node)
//	GET    /v1/experiments        experiment catalogue (any up node)
//	GET    /v1/cluster            membership, ring, and routing counters
//	POST   /v1/nodes              join a new node ({"id": ..., "url": ...})
//	POST   /v1/nodes/{id}/drain   drain one node and rebalance its shard
//	GET    /v1/debug/bundle       cluster postmortem (every node's bundle, node-stamped)
//	GET    /metrics               gateway Prometheus exposition (?format=json)
//	GET    /healthz               gateway liveness (503 with no routable nodes)
func (r *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", r.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", r.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", r.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", r.handleSpans)
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.handleCancel)
	mux.HandleFunc("POST /v1/sessions", r.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", r.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", r.handleSessionStatus)
	mux.HandleFunc("POST /v1/sessions/{id}/pause", r.handleSessionVerb("pause"))
	mux.HandleFunc("POST /v1/sessions/{id}/resume", r.handleSessionVerb("resume"))
	mux.HandleFunc("POST /v1/sessions/{id}/fork", r.handleSessionFork)
	mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", r.handleSessionCheckpoint)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /v1/stream", r.handleStream)
	mux.HandleFunc("GET /v1/kinds", r.handleCatalogue("/v1/kinds"))
	mux.HandleFunc("GET /v1/experiments", r.handleCatalogue("/v1/experiments"))
	mux.HandleFunc("GET /v1/cluster", r.handleCluster)
	mux.HandleFunc("POST /v1/nodes", r.handleNodeJoin)
	mux.HandleFunc("POST /v1/nodes/{id}/drain", r.handleNodeDrain)
	mux.HandleFunc("GET /v1/debug/bundle", r.handleBundle)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	if r.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var jobReq service.Request
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jobReq); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad request body: " + err.Error()})
		return
	}
	view, nodeID, err := r.Submit(req.Context(), jobReq)
	if err != nil {
		var shed *shedError
		var bad *badRequest
		switch {
		case errors.As(err, &bad):
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_, _ = w.Write(bad.Body)
		case errors.As(err, &shed):
			ra := shed.RetryAfter
			if ra < time.Second {
				ra = time.Second
			}
			w.Header().Set("Retry-After", strconv.Itoa(int(ra.Seconds()+0.5)))
			writeJSON(w, http.StatusTooManyRequests, errorDoc{
				Error: err.Error(), Nodes: shed.Nodes, Attempts: shed.Attempts,
			})
		case errors.Is(err, ErrNoNodes):
			writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		}
		return
	}
	writeJSON(w, service.SubmitStatus(view), labelledViewOf(view, nodeID))
}

// labelledView decorates a node's job view with the shard that holds it.
type labelledView struct {
	service.View
	Node string `json:"node"`
}

func labelledViewOf(v service.View, node string) labelledView {
	return labelledView{View: v, Node: node}
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	e, ok := r.resolve(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	if e.lost != "" {
		writeJSON(w, http.StatusOK, map[string]any{
			"id": e.id, "state": service.StateFailed, "error": e.lost, "node": e.node,
		})
		return
	}
	status, _, body, err := r.client.get(req.Context(), r.members.URL(e.node)+"/v1/jobs/"+e.id)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorDoc{Error: "shard unreachable: " + err.Error(), Node: e.node})
		return
	}
	if status == http.StatusOK {
		var v service.View
		if json.Unmarshal(body, &v) == nil {
			r.observeState(e, v.State)
			writeJSON(w, status, labelledViewOf(v, e.node))
			return
		}
	}
	passThrough(w, status, "application/json", body)
}

func (r *Router) handleResult(w http.ResponseWriter, req *http.Request) {
	e, ok := r.resolve(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	if e.lost != "" {
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: e.lost})
		return
	}
	url := r.members.URL(e.node) + "/v1/jobs/" + e.id + "/result"
	if raw := req.URL.RawQuery; raw != "" {
		url += "?" + raw
	}
	status, ctype, body, err := r.client.get(req.Context(), url)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorDoc{Error: "shard unreachable: " + err.Error(), Node: e.node})
		return
	}
	// The node's result handler encodes the job state in its status code:
	// 200 done, 500 failed, 410 cancelled, 202 still pending.
	switch status {
	case http.StatusOK:
		r.observeState(e, service.StateDone)
	case http.StatusInternalServerError:
		r.observeState(e, service.StateFailed)
	case http.StatusGone:
		r.observeState(e, service.StateCancelled)
	}
	passThrough(w, status, ctype, body)
}

func (r *Router) handleTrace(w http.ResponseWriter, req *http.Request) {
	e, ok := r.resolve(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	if e.lost != "" {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: e.lost})
		return
	}
	status, ctype, body, err := r.client.get(req.Context(), r.members.URL(e.node)+"/v1/jobs/"+e.id+"/trace")
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorDoc{Error: "shard unreachable: " + err.Error(), Node: e.node})
		return
	}
	passThrough(w, status, ctype, body)
}

// handleSpans proxies a job's raw span log (the wire trace context) from
// its shard, the same document the dead-node harvest reads.
func (r *Router) handleSpans(w http.ResponseWriter, req *http.Request) {
	e, ok := r.resolve(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	if e.lost != "" {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: e.lost, Node: e.node})
		return
	}
	status, ctype, body, err := r.client.get(req.Context(), r.members.URL(e.node)+"/v1/jobs/"+e.id+"/spans")
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorDoc{Error: "shard unreachable: " + err.Error(), Node: e.node})
		return
	}
	passThrough(w, status, ctype, body)
}

func (r *Router) handleCancel(w http.ResponseWriter, req *http.Request) {
	e, ok := r.resolve(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	if e.lost != "" {
		writeJSON(w, http.StatusConflict, errorDoc{Error: "job already failed: " + e.lost})
		return
	}
	status, ctype, body, err := r.client.del(req.Context(), r.members.URL(e.node)+"/v1/jobs/"+e.id)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorDoc{Error: "shard unreachable: " + err.Error(), Node: e.node})
		return
	}
	if status == http.StatusOK {
		var v service.View
		if json.Unmarshal(body, &v) == nil {
			r.observeState(e, v.State)
			writeJSON(w, status, labelledViewOf(v, e.node))
			return
		}
	}
	passThrough(w, status, ctype, body)
}

func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	type nodeJobs struct {
		Jobs []service.View `json:"jobs"`
	}
	var out []labelledView
	for _, id := range r.members.Peekable() {
		status, _, body, err := r.client.get(req.Context(), r.members.URL(id)+"/v1/jobs")
		if err != nil || status != http.StatusOK {
			continue
		}
		var doc nodeJobs
		if json.Unmarshal(body, &doc) != nil {
			continue
		}
		for _, v := range doc.Jobs {
			out = append(out, labelledViewOf(v, id))
		}
	}
	if out == nil {
		out = []labelledView{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.FederatedStats(req.Context()))
}

// handleStream is the federated live feed: every node's SSE events,
// node-labelled, multiplexed through the gateway hub, plus a periodic
// merged cluster-stats event the per-node streams cannot provide.
func (r *Router) handleStream(w http.ResponseWriter, req *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: "streaming unsupported"})
		return
	}
	interval := r.cfg.StreamInterval
	if q := req.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad interval: " + err.Error()})
			return
		}
		interval = d
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}

	events, cancel := r.hub.Subscribe(64)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeCluster := func() bool {
		data, err := json.Marshal(r.FederatedStats(req.Context()))
		if err != nil {
			return false
		}
		return writeSSE(w, "cluster", data)
	}
	if !writeCluster() {
		return
	}
	fl.Flush()

	tick := time.NewTicker(interval)
	defer tick.Stop()
	// Heartbeats are SSE comment lines (leading ':'), ignored by clients
	// per spec; they keep idle federated streams alive through proxies.
	hb := time.NewTicker(r.cfg.HeartbeatInterval)
	defer hb.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				return // hub closed: gateway stopping
			}
			if !writeSSE(w, ev.Name, ev.Data) {
				return
			}
			fl.Flush()
		case <-tick.C:
			if !writeCluster() {
				return
			}
			fl.Flush()
		case <-hb.C:
			if _, err := w.Write([]byte(": heartbeat\n\n")); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// handleCatalogue proxies a static catalogue endpoint (identical on every
// node) from the first member that answers.
func (r *Router) handleCatalogue(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		for _, id := range r.members.Peekable() {
			status, ctype, body, err := r.client.get(req.Context(), r.members.URL(id)+path)
			if err != nil || status != http.StatusOK {
				continue
			}
			passThrough(w, status, ctype, body)
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: ErrNoNodes.Error()})
	}
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	ring := r.ring.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"members":       r.members.Snapshot(),
		"ring":          map[string]any{"nodes": ring.Nodes(), "vnodes": ring.VNodes()},
		"gateway":       r.Counters(),
		"in_flight":     r.inFlight(),
		"live_sessions": r.liveSessions(),
	})
}

func (r *Router) handleNodeJoin(w http.ResponseWriter, req *http.Request) {
	var mem Member
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mem); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad member document: " + err.Error()})
		return
	}
	if err := r.AddMember(mem); err != nil {
		writeJSON(w, http.StatusConflict, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"status": "joined", "node": mem.ID})
}

func (r *Router) handleNodeDrain(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := r.DrainNode(req.Context(), id); err != nil {
		status := http.StatusBadGateway
		if r.members.URL(id) == "" {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"status": "draining", "node": id})
}

// handleMetrics serves the gateway's own observability: cumulative routing
// counters, rolling route/peek/failover windows, and process health, in
// the Prometheus text format by default or JSON on request.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	m := r.Metrics(time.Now())
	if req.URL.Query().Get("format") == "json" ||
		strings.Contains(req.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, m)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(m.Prometheus()))
}

// handleHealthz reports gateway liveness: healthy while at least one
// member is routable, 503 degraded otherwise (a load balancer in front of
// several gateways should stop routing here).
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	states := map[NodeState]int{}
	for _, m := range r.members.Snapshot() {
		states[m.State]++
	}
	doc := map[string]any{
		"status": "ok",
		"nodes":  map[string]int{"up": states[NodeUp], "draining": states[NodeDraining], "down": states[NodeDown]},
	}
	if states[NodeUp] == 0 {
		doc["status"] = "degraded"
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// passThrough copies a node response to the client unchanged.
func passThrough(w http.ResponseWriter, status int, ctype string, body []byte) {
	if ctype != "" {
		w.Header().Set("Content-Type", ctype)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON serializes a response document (indented, matching the nodes).
func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// writeSSE emits one Server-Sent Event frame.
func writeSSE(w http.ResponseWriter, name string, data []byte) bool {
	if _, err := w.Write([]byte("event: " + name + "\ndata: ")); err != nil {
		return false
	}
	if _, err := w.Write(data); err != nil {
		return false
	}
	_, err := w.Write([]byte("\n\n"))
	return err == nil
}
