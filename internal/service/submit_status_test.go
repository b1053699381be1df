package service

import (
	"fmt"
	"net/http"
	"testing"
)

// TestSubmitStatusFollowsCacheHit pins the 200-versus-202 decision to the
// cache lookup: a job that is already done but was not a cache hit (a fast
// fresh job) answers 202, and only a cache hit answers 200.
func TestSubmitStatusFollowsCacheHit(t *testing.T) {
	for _, tc := range []struct {
		v    View
		want int
	}{
		{View{State: StateQueued}, http.StatusAccepted},
		{View{State: StateDone}, http.StatusAccepted},
		{View{State: StateDone, CacheHit: true}, http.StatusOK},
	} {
		if got := SubmitStatus(tc.v); got != tc.want {
			t.Errorf("state %s cache_hit=%v: status %d, want %d", tc.v.State, tc.v.CacheHit, got, tc.want)
		}
	}
}

// TestFreshSubmitsAnswer202 drives the handler: fresh predicts finish in
// microseconds, often before the submit response is written, and must
// still answer 202 without claiming a cache hit; resubmitting one answers
// 200 from the cache.
func TestFreshSubmitsAnswer202(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueCap: 64})
	body := func(n int) string {
		return fmt.Sprintf(`{"type":"predict","predict":{"machine":"Yona","kind":"bulk","cores":96,"threads":6,"n":%d}}`, n)
	}
	var last View
	for n := 16; n < 216; n++ {
		resp, v := postJob(t, ts, body(n))
		if resp.StatusCode != http.StatusAccepted || v.CacheHit {
			t.Fatalf("fresh submit n=%d: status %d cache_hit=%v state=%s", n, resp.StatusCode, v.CacheHit, v.State)
		}
		last = v
	}
	waitState(t, ts, last.ID, StateDone)
	resp, v := postJob(t, ts, body(215))
	if resp.StatusCode != http.StatusOK || !v.CacheHit {
		t.Fatalf("repeat submit: status %d cache_hit=%v, want 200 from the cache", resp.StatusCode, v.CacheHit)
	}
}
