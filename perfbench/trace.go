package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span per call the benchmark makes into a
// layer: its layer, its name, when it started and ended, the span that
// caused it, and the request it belongs to. Spans stay in memory and are
// written out when the run ends. A nil *tracer records nothing.

type span struct {
	ID, Parent, Req int64
	Layer, Name     string
	Start, End      time.Duration // since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; the zero value (and any span of a nil tracer)
// is inert.
type active struct {
	t          *tracer
	id, parent int64
	req        int64
	layer      string
	name       string
	start      time.Duration
}

// begin opens a span. A zero parent starts a new request: the span is its
// root and its id becomes the request id its children share.
func (t *tracer) begin(layer, name string, parent active) active {
	if t == nil {
		return active{}
	}
	id := t.next.Add(1)
	req := parent.req
	if parent.id == 0 {
		req = id
	}
	return active{t: t, id: id, parent: parent.id, req: req,
		layer: layer, name: name, start: time.Since(t.epoch)}
}

// sample returns t for even i and nil for odd i. A traced run traces
// every other request (solve: every other cycle; session: every other
// round), so the traced and untraced ones share host state and store
// sizes, and obs.trace_overhead_frac compares like with like.
func (t *tracer) sample(i int) *tracer {
	if i%2 == 1 {
		return nil
	}
	return t
}

func (a active) end() {
	if a.t == nil {
		return
	}
	s := span{ID: a.id, Parent: a.parent, Req: a.req, Layer: a.layer, Name: a.name,
		Start: a.start, End: time.Since(a.t.epoch)}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime sums, per layer, each span's duration minus the part of it its
// child spans cover.
func selfTime(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered := time.Duration(0)
		cur := iv{-1, -1}
		for _, c := range ivs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if lo > cur.hi {
				if cur.hi > cur.lo {
					covered += cur.hi - cur.lo
				}
				cur = iv{lo, hi}
			} else if hi > cur.hi {
				cur.hi = hi
			}
		}
		if cur.hi > cur.lo {
			covered += cur.hi - cur.lo
		}
		out[s.Layer] += s.End - s.Start - covered
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON, the format
// `advect -trace` writes: one track per layer, "X" complete events with
// microsecond timestamps; args carry the span, parent and request ids.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	var layers []string
	for _, s := range spans {
		if _, ok := tids[s.Layer]; !ok {
			tids[s.Layer] = 0
			layers = append(layers, s.Layer)
		}
	}
	sort.Strings(layers)
	events := []event{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "perfbench"}}}
	for i, l := range layers {
		tids[l] = i + 1
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
			Args: map[string]any{"name": l}})
	}
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X", PID: 1, TID: tids[s.Layer],
			TS: us(s.Start), Dur: us(s.End - s.Start),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": events, "displayTimeUnit": "ms",
	})
}
