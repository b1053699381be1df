package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// testCluster is an in-process two-node cluster built the way
// `advectgw -local 2` builds it: two service nodes and a gateway router,
// each serving HTTP on a loopback port.
type testCluster struct {
	nodes  []*node
	router *cluster.Router
	gw     *http.Server
	gwURL  string
	stop   context.CancelFunc
	served sync.WaitGroup
}

type node struct {
	id  string
	url string
	srv *service.Server
	hs  *http.Server
}

// Node settings mirror advectgw's -local defaults.
func nodeConfig(id, sessionDir string) service.Config {
	return service.Config{
		Workers: 2, QueueCap: 16, CacheEntries: 256,
		DrainTimeout: 30 * time.Second, NodeID: id, SessionDir: sessionDir,
	}
}

// bootCluster starts the nodes and the gateway. With a non-empty
// sessionDir every node gets its own session store below it.
func bootCluster(sessionDir string) (*testCluster, error) {
	c := &testCluster{}
	var members []cluster.Member
	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("local-%d", i)
		dir := ""
		if sessionDir != "" {
			dir = filepath.Join(sessionDir, id)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				c.close()
				return nil, fmt.Errorf("session dir for %s: %w", id, err)
			}
		}
		srv := service.New(nodeConfig(id, dir))
		url, hs, err := c.serve(srv.Handler())
		if err != nil {
			_ = srv.Shutdown()
			c.close()
			return nil, fmt.Errorf("node %s: %w", id, err)
		}
		c.nodes = append(c.nodes, &node{id: id, url: url, srv: srv, hs: hs})
		members = append(members, cluster.Member{ID: id, URL: url})
	}
	c.router = cluster.NewRouter(cluster.Config{Members: members})
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	c.router.Start(ctx)
	url, hs, err := c.serve(c.router.Handler())
	if err != nil {
		c.close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	c.gw, c.gwURL = hs, url
	return c, nil
}

func (c *testCluster) serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	c.served.Add(1)
	go func() {
		defer c.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), hs, nil
}

// ready waits until the gateway answers and routes to both nodes.
func (c *testCluster) ready(ctx context.Context, cl *client) error {
	for {
		st, body, err := cl.get(ctx, c.gwURL+"/v1/cluster")
		if err == nil && st == http.StatusOK {
			var doc struct {
				Ring struct {
					Nodes []string `json:"nodes"`
				} `json:"ring"`
			}
			if json.Unmarshal(body, &doc) == nil && len(doc.Ring.Nodes) == len(c.nodes) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the gateway, drains the nodes and waits for every server
// goroutine to return.
func (c *testCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.gw != nil {
		_ = c.gw.Shutdown(ctx)
	}
	if c.stop != nil {
		c.stop()
		c.router.Stop()
	}
	for _, n := range c.nodes {
		_ = n.srv.Shutdown()
		_ = n.hs.Shutdown(ctx)
	}
	c.served.Wait()
}

// client is the benchmark's HTTP client. Every call counts as one
// operation on the wire; transport errors and timeouts are failures.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 128,
		IdleConnTimeout:     30 * time.Second,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) get(ctx context.Context, url string) (int, []byte, error) {
	return c.do(ctx, http.MethodGet, url, nil)
}

func (c *client) post(ctx context.Context, url string, body any) (int, []byte, error) {
	return c.do(ctx, http.MethodPost, url, body)
}

// failedStatus reports whether a status counts as a failed operation:
// shed load (429) and server errors.
func failedStatus(st int) bool {
	return st == http.StatusTooManyRequests || st >= 500
}

// errStatus is an unexpected HTTP status.
type errStatus struct {
	op   string
	code int
	body []byte
}

func (e *errStatus) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.code, bytes.TrimSpace(e.body))
}

// isFailure reports whether err is an operation failure — shed load, a
// server error, a timeout or a transport error — rather than a wrong
// answer.
func isFailure(err error) bool {
	var es *errStatus
	if errors.As(err, &es) {
		return failedStatus(es.code)
	}
	var ue *url.Error
	return errors.As(err, &ue) || errors.Is(err, context.DeadlineExceeded)
}
