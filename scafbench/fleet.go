package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"scaf/internal/server"
)

// backendWorkers is each backend's analysis worker count, the default of
// the loadgen saturation sweep whose fleet wiring this copies.
const backendWorkers = 4

// fleet is an in-process scaf-router in front of two scaf-serve backends
// that peer as one distributed cache, all on loopback, wired as the
// loadgen saturation sweep wires its fleets.
type fleet struct {
	url      string
	backends []string // backend base URLs, b0 first
	srvs     []*server.Server
	router   *server.Router
	https    []*http.Server
}

func bootFleet() (*fleet, error) {
	ls := make([]net.Listener, 3) // b0, b1, router
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, p := range ls[:i] {
				p.Close()
			}
			return nil, err
		}
		ls[i] = l
	}
	ids := []string{"b0", "b1"}
	urls := map[string]string{}
	f := &fleet{url: "http://" + ls[2].Addr().String()}
	for i, id := range ids {
		urls[id] = "http://" + ls[i].Addr().String()
		f.backends = append(f.backends, urls[id])
	}
	for i, id := range ids {
		peers := map[string]string{}
		for pid, u := range urls {
			if pid != id {
				peers[pid] = u
			}
		}
		srv := server.New(server.Config{
			Workers: backendWorkers, MaxQueue: 4 * backendWorkers,
			Fleet: &server.FleetConfig{Self: id, Peers: peers, Timeout: 5 * time.Second, AutoFlush: 20 * time.Millisecond},
		})
		f.srvs = append(f.srvs, srv)
		f.serve(srv.Handler(), ls[i])
	}
	f.router = server.NewRouter(server.RouterConfig{Backends: urls, Route: "hash"})
	f.serve(f.router.Handler(), ls[2])
	return f, nil
}

func (f *fleet) serve(h http.Handler, l net.Listener) {
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	go hs.Serve(l)
}

// close drains the fleet and returns once every server has stopped.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Client pools close first: spare pooled connections read as StateNew
	// server-side, and Shutdown only reaps those after a grace period.
	http.DefaultClient.CloseIdleConnections()
	if f.router != nil {
		f.router.Close()
	}
	for _, srv := range f.srvs {
		srv.Shutdown(ctx)
	}
	for _, hs := range f.https {
		hs.Shutdown(ctx)
	}
}

// bootPlain serves one standalone scaf-serve instance outside any fleet:
// the reference for direct (router-free, broadcast-free) costs.
func bootPlain() (*fleet, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{url: "http://" + l.Addr().String()}
	f.backends = []string{f.url}
	srv := server.New(server.Config{Workers: backendWorkers, MaxQueue: 4 * backendWorkers})
	f.srvs = append(f.srvs, srv)
	f.serve(srv.Handler(), l)
	return f, nil
}

// client is the load generator's HTTP side: one pooled transport whose
// connections per target never exceed the workload's caller count.
type client struct {
	hc  *http.Client
	rec *recorder
}

func newClient(e *env) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     e.callers,
		MaxIdleConnsPerHost: e.callers,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, rec: e.rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call issues one request, recording a span named after its method and
// route, and returns the status and body. A transport error is returned as
// err.
func (c *client) call(parent *openSpan, route, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := c.rec.begin("http "+method+" "+route, parent)
	defer sp.end()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, route, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read body: %w", method, route, err)
	}
	return resp.StatusCode, raw, nil
}

// expect wraps call and turns any status other than want into an error.
func (c *client) expect(parent *openSpan, route, method, url string, body any, want int) ([]byte, error) {
	status, raw, err := c.call(parent, route, method, url, body)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, route, status, raw)
	}
	return raw, nil
}

// metrics reads one instance's /metrics.
func (c *client) metrics(base string) (*server.MetricsResponse, error) {
	raw, err := c.expect(nil, "/metrics", "GET", base+"/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}
