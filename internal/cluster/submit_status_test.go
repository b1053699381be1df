package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestGatewaySubmitStatusFollowsCacheHit: the gateway's 200-versus-202
// answer follows the owner's cache_hit, not how far the job has run. A
// fresh job that is already done by the time the owner replies answers
// 202; only a cache hit answers 200.
func TestGatewaySubmitStatusFollowsCacheHit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cacheHit string
		want     int
	}{
		{"fresh job already done", "false", http.StatusAccepted},
		{"cache hit", "true", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := func(n int64, w http.ResponseWriter) {
				w.WriteHeader(http.StatusOK)
				_, _ = io.WriteString(w, `{"id":"s-job-000001","state":"done","cache_hit":`+tc.cacheHit+`}`)
			}
			m1, _ := startStub(t, "s1", done)
			m2, _ := startStub(t, "s2", done)
			gw := httptest.NewServer(NewRouter(Config{Members: []Member{m1, m2}}).Handler())
			t.Cleanup(gw.Close)

			body, err := json.Marshal(stubRequest())
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(gw.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}
