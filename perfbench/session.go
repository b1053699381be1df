package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/session"
)

// session: closed loop, one client. Each round creates a session through
// the gateway, waits for it, forks it from a retained checkpoint to the
// same total and waits again; the fork must end bitwise where its parent
// did.

const (
	sessN       = 64
	sessSteps   = 200
	sessSegment = 25
	// sessForkAt is a checkpoint the default retention (4) still holds
	// when the parent is done: 125, 150, 175 and 200 are kept.
	sessForkAt = 125
	// sessMemRounds is how many rounds rss_peak_mb is taken over. Memory
	// grows with every finished session (the gateway keeps its last
	// replicated checkpoint), so over a whole closed loop a faster server
	// would read as a fatter one; a fixed number of rounds is the same
	// work on every run.
	sessMemRounds = 10
)

type sessionWorkload struct {
	nus     *nuSource
	fastest fastest
}

func newSession(seed int64) *sessionWorkload {
	return &sessionWorkload{nus: newNuSource(newRand(seed, streamSession)), fastest: fastest{}}
}

func sessionRequest(n, steps int, nu float64) service.SessionRequest {
	return service.SessionRequest{
		Simulate: &service.SimulateRequest{Kind: "bulk", N: n, Steps: steps, Nu: nu, Tasks: 2},
		Segment:  sessSegment,
	}
}

// warm runs one short session and its fork.
func (w *sessionWorkload) warm(ctx context.Context, e *env) error {
	_, _, err := w.round(ctx, e, sessionRequest(32, 2*sessSegment, w.nus.next()), sessSegment, nil, nil)
	return err
}

// waitSession polls a session's status until it rests.
func (w *sessionWorkload) waitSession(ctx context.Context, e *env, id string, plan pollPlan, tr *tracer, root active) (session.View, int, error) {
	cur := plan.every
	for i := 0; ; i++ {
		if err := plan.wait(ctx, i, &cur); err != nil {
			return session.View{}, i, err
		}
		sp := tr.begin("gateway", "session-status", root)
		st, body, err := e.cl.get(ctx, e.c.gwURL+"/v1/sessions/"+id)
		sp.end()
		if err != nil {
			return session.View{}, i + 1, fmt.Errorf("session status: %w", err)
		}
		if st != http.StatusOK {
			return session.View{}, i + 1, &errStatus{op: "session status", code: st, body: body}
		}
		var v session.View
		if err := json.Unmarshal(body, &v); err != nil {
			return v, i + 1, fmt.Errorf("session status: %w", err)
		}
		switch v.State {
		case session.StateDone:
			return v, i + 1, nil
		case session.StateFailed, session.StatePaused:
			return v, i + 1, &errStatus{op: "session " + string(v.State), code: http.StatusInternalServerError, body: []byte(v.Error)}
		}
	}
}

// round creates a session, waits for it, forks it at forkAt to the same
// total and waits for the fork. It returns the two latencies.
func (w *sessionWorkload) round(ctx context.Context, e *env, req service.SessionRequest, forkAt int64, tr *tracer, res *result) (create, fork time.Duration, err error) {
	root := tr.begin("request", "session", active{})
	defer root.end()
	start := time.Now()
	sp := tr.begin("gateway", "session-create", root)
	st, body, err := e.cl.post(ctx, e.c.gwURL+"/v1/sessions", req)
	sp.end()
	if err != nil {
		return 0, 0, fmt.Errorf("session create: %w", err)
	}
	if st != http.StatusAccepted {
		return 0, 0, &errStatus{op: "session create", code: st, body: body}
	}
	var parent session.View
	if err := json.Unmarshal(body, &parent); err != nil {
		return 0, 0, fmt.Errorf("session create: %w", err)
	}
	parent, polls, err := w.waitSession(ctx, e, parent.ID, planFor(w.fastest["create"]), tr, root)
	if res != nil {
		res.polls += polls
	}
	if err != nil {
		return 0, 0, err
	}
	create = time.Since(start)

	forkStart := time.Now()
	sp = tr.begin("gateway", "session-fork", root)
	st, body, err = e.cl.post(ctx, e.c.gwURL+"/v1/sessions/"+parent.ID+"/fork",
		service.ForkRequest{AtStep: &forkAt, TotalSteps: int64(req.Simulate.Steps)})
	sp.end()
	if err != nil {
		return create, 0, fmt.Errorf("session fork: %w", err)
	}
	if st != http.StatusAccepted {
		return create, 0, &errStatus{op: "session fork", code: st, body: body}
	}
	var child session.View
	if err := json.Unmarshal(body, &child); err != nil {
		return create, 0, fmt.Errorf("session fork: %w", err)
	}
	child, polls, err = w.waitSession(ctx, e, child.ID, planFor(w.fastest["fork"]), tr, root)
	if res != nil {
		res.polls += polls
	}
	if err != nil {
		return create, 0, err
	}
	fork = time.Since(forkStart)

	vs := tr.begin("verify", "check", root)
	defer vs.end()
	want := int64(req.Simulate.Steps)
	if parent.DoneSteps != want || child.DoneSteps != want {
		return create, fork, fmt.Errorf("session %s done at %d, fork %s at %d; want %d",
			parent.ID, parent.DoneSteps, child.ID, child.DoneSteps, want)
	}
	if parent.FieldHash == "" || child.FieldHash != parent.FieldHash {
		return create, fork, fmt.Errorf("fork %s ends with field hash %q, parent %s with %q",
			child.ID, child.FieldHash, parent.ID, parent.FieldHash)
	}
	return create, fork, nil
}

func (w *sessionWorkload) measure(ctx context.Context, e *env, span time.Duration, tr *tracer) (*result, error) {
	res := newResult()
	var creates, forks []time.Duration
	var all []float64
	began := time.Now()
	deadline := began.Add(span)
	prev := began
	for time.Now().Before(deadline) {
		rtr := tr.sample(res.attempted)
		res.attempted++
		res.lateMs = append(res.lateMs, ms(time.Since(prev)))
		c, f, err := w.round(ctx, e, sessionRequest(sessN, sessSteps, w.nus.next()), sessForkAt, rtr, res)
		prev = time.Now()
		if res.attempted == sessMemRounds {
			res.memTo = prev
		}
		if err != nil {
			res.fail(err)
			continue
		}
		res.sessions++
		w.fastest.note("create", c)
		w.fastest.note("fork", f)
		creates = append(creates, c)
		forks = append(forks, f)
		all = append(all, ms(c), ms(f))
		res.timed(rtr, "create", ms(c))
		res.timed(rtr, "fork", ms(f))
	}
	if len(creates) == 0 {
		return nil, fmt.Errorf("session: no session completed in %v", span)
	}
	var cg, fg []float64
	for i := range creates {
		cg = append(cg, paperGF(sessN, sessSteps, creates[i]))
		fg = append(fg, paperGF(sessN, sessSteps-sessForkAt, forks[i]))
	}
	gf, forkGF := median(cg), median(fg)
	res.e2e["gf"] = geomean([]float64{gf, forkGF})
	res.e2e["p50_ms"] = geomean([]float64{median(msOf(creates)), median(msOf(forks))})
	res.setTail(all)
	res.e2e["ops_per_s"] = float64(len(all)) / time.Since(began).Seconds()
	if res.memTo.IsZero() {
		res.line("rss_peak_mb over all %d rounds: fewer than the %d it is defined over", res.attempted, sessMemRounds)
	}
	res.line("session.gf %.4f GF (median of %d sessions, create → done)", gf, len(creates))
	res.line("session.fork_gf %.4f GF (median of %d forks, fork → done)", forkGF, len(forks))
	return res, nil
}
