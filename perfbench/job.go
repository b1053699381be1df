package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
)

// pollPlan spaces result polls: wait first, then every, growing by grow
// up to limit.
type pollPlan struct {
	first, every, limit time.Duration
	grow                float64
}

// planFor polls a job of a class whose fastest measured job so far took
// fastest: the first poll waits half of that, later ones come every 1% of
// it, so polling adds about 1% to a measured latency, and a job up to
// twice as fast as any before it is still timed as it is rather than at
// the first poll. Without a measured job it backs off from 1 ms to 20 ms.
func planFor(fastest time.Duration) pollPlan {
	if fastest <= 0 {
		return pollPlan{every: time.Millisecond, limit: 20 * time.Millisecond, grow: 1.25}
	}
	every := max(fastest/100, time.Millisecond)
	return pollPlan{first: fastest / 2, every: every, limit: every, grow: 1}
}

// fastest keeps the shortest measured latency per job class; warm-up jobs,
// which run at other sizes, are never noted.
type fastest map[string]time.Duration

func (f fastest) note(class string, d time.Duration) {
	if cur, ok := f[class]; !ok || d < cur {
		f[class] = d
	}
}

// fastPlan polls sub-millisecond jobs: immediately, then backing off from
// 50 µs.
var fastPlan = pollPlan{every: 50 * time.Microsecond, limit: time.Millisecond, grow: 2}

// tinyPlan polls serve's tiny simulates (about 3 ms) every 250 µs in the
// closed loop, where their latency is the workload's gf. On fastPlan's
// 1 ms grid their median snapped between two grid points from run to run.
// At the fixed rate the extra polls cost more than they resolve: they
// raised the median latency of every request by a tenth and doubled its
// spread between runs.
var tinyPlan = pollPlan{every: 250 * time.Microsecond, limit: 250 * time.Microsecond, grow: 1}

func (p pollPlan) wait(ctx context.Context, i int, cur *time.Duration) error {
	var d time.Duration
	if i == 0 {
		d = p.first
	} else {
		d = *cur
		*cur = min(time.Duration(float64(*cur)*p.grow), p.limit)
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jobView is the part of a job's status document the benchmark reads.
type jobView struct {
	ID       string        `json:"id"`
	State    service.State `json:"state"`
	CacheHit bool          `json:"cache_hit"`
}

// jobOutcome is one submitted job carried to its terminal result.
type jobOutcome struct {
	status int // submit status: 200 or 202
	view   jobView
	doc    []byte // the result document
	polls  int    // result fetches, the one that returned the result included
}

// runJob submits req through base and polls its result until the result is
// in hand. Each HTTP call is a gateway-layer span under root.
func runJob(ctx context.Context, cl *client, base string, req service.Request, plan pollPlan, tr *tracer, root active) (jobOutcome, error) {
	var out jobOutcome
	sp := tr.begin("gateway", "submit", root)
	st, body, err := cl.post(ctx, base+"/v1/jobs", req)
	sp.end()
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	if st != http.StatusOK && st != http.StatusAccepted {
		return out, &errStatus{op: "submit", code: st, body: body}
	}
	out.status = st
	if err := json.Unmarshal(body, &out.view); err != nil {
		return out, fmt.Errorf("submit: decoding view: %w", err)
	}
	cur := plan.every
	for i := 0; ; i++ {
		if !out.view.State.Terminal() {
			if err := plan.wait(ctx, i, &cur); err != nil {
				return out, fmt.Errorf("poll: %w", err)
			}
		}
		sp := tr.begin("gateway", "result", root)
		st, body, err := cl.get(ctx, base+"/v1/jobs/"+out.view.ID+"/result")
		sp.end()
		out.polls++
		if err != nil {
			return out, fmt.Errorf("result: %w", err)
		}
		switch st {
		case http.StatusOK:
			out.doc = body
			return out, nil
		case http.StatusAccepted:
			out.view.State = service.StateRunning
		default:
			return out, &errStatus{op: "result", code: st, body: body}
		}
	}
}
