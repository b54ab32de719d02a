package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// An in-process fleet on loopback: member backends peered as one cache
// tier behind a Router, plus spare backends that know the members but sit
// outside the router until a /fleet/join adds them. The oracle's fleet
// passes, the loadgen saturation sweep and the fleet tests all boot their
// fleets here, so the wiring (listeners, peer maps, teardown order) exists
// once.

// harnessPeerTimeout bounds each backend's peer RPCs.
const harnessPeerTimeout = 5 * time.Second

// HarnessConfig shapes an in-process fleet. Zero values pick the defaults
// of Config, FleetConfig and RouterConfig.
type HarnessConfig struct {
	// Members is the number of member backends (b0, b1, …): mutual cache
	// peers, all behind the router.
	Members int
	// Spares is the number of spare backends (j0, j1, …). Their peers are
	// the members; the router and members learn of them through a join.
	Spares int
	// Workers, MaxQueue and AutoFlush apply to every backend.
	Workers   int
	MaxQueue  int
	AutoFlush time.Duration
	// CacheDir, when non-empty, makes every backend durable in its own
	// subdirectory CacheDir/<id>, so a fleet booted again over the same
	// CacheDir starts warm from the snapshots the last Close drained.
	CacheDir string
	// RouterCacheDir and DrainTimeout configure the router.
	RouterCacheDir string
	DrainTimeout   time.Duration
}

// Harness is a booted in-process fleet.
type Harness struct {
	// URL is the router's base URL.
	URL     string
	Router  *Router
	Members []*HarnessBackend
	Spares  []*HarnessBackend

	backends []*HarnessBackend // Members, then Spares
	rhs      *http.Server
	client   *http.Client
}

// HarnessBackend is one backend of a Harness. Kill and Restart take it
// down and bring it back on the same address.
type HarnessBackend struct {
	ID     string
	URL    string
	Server *Server

	cfg Config
	// mu orders Kill, Restart and Close: tests kill backends from router
	// hooks, on the router's goroutines.
	mu   sync.Mutex
	hs   *http.Server
	dead bool
}

// StartHarness binds one loopback listener per backend plus one for the
// router, builds every server against the bound addresses, and serves.
// Each listener is held from Listen until Serve, so no other process can
// take an address in between; on error every listener bound so far is
// closed.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	n := cfg.Members + cfg.Spares
	ls := make([]net.Listener, 0, n+1) // backends, then the router
	for i := 0; i <= n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, p := range ls {
				p.Close()
			}
			return nil, fmt.Errorf("harness: %w", err)
		}
		ls = append(ls, l)
	}

	h := &Harness{client: &http.Client{Timeout: 60 * time.Second}}
	members := map[string]string{}
	for i := 0; i < n; i++ {
		b := &HarnessBackend{ID: fmt.Sprintf("b%d", i), URL: "http://" + ls[i].Addr().String()}
		if i < cfg.Members {
			members[b.ID] = b.URL
		} else {
			b.ID = fmt.Sprintf("j%d", i-cfg.Members)
		}
		h.backends = append(h.backends, b)
	}
	h.Members, h.Spares = h.backends[:cfg.Members:cfg.Members], h.backends[cfg.Members:]
	for i, b := range h.backends {
		peers := map[string]string{}
		for id, u := range members {
			if id != b.ID {
				peers[id] = u
			}
		}
		fc := &FleetConfig{Self: b.ID, Peers: peers, Timeout: harnessPeerTimeout, AutoFlush: cfg.AutoFlush}
		if cfg.CacheDir != "" {
			fc.CacheDir = filepath.Join(cfg.CacheDir, b.ID)
		}
		b.cfg = Config{Workers: cfg.Workers, MaxQueue: cfg.MaxQueue, Fleet: fc}
		b.serve(ls[i])
	}

	h.Router = NewRouter(RouterConfig{
		Backends: members, CacheDir: cfg.RouterCacheDir, DrainTimeout: cfg.DrainTimeout,
	})
	h.URL = "http://" + ls[n].Addr().String()
	h.rhs = &http.Server{Handler: h.Router.Handler()}
	go h.rhs.Serve(ls[n])
	return h, nil
}

func (b *HarnessBackend) serve(l net.Listener) {
	b.Server = New(b.cfg)
	b.hs = &http.Server{Handler: b.Server.Handler()}
	b.dead = false
	go b.hs.Serve(l)
}

// Kill takes the backend down as a crash would: its listener and
// connections close at once and its cache tier stops, with no drain and
// no snapshot.
func (b *HarnessBackend) Kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hs.Close()
	b.Server.fleet.Close()
	b.dead = true
}

// Restart boots a fresh server for a killed backend on its old address,
// with the same config (a durable backend reloads its directory).
func (b *HarnessBackend) Restart() error {
	l, err := net.Listen("tcp", strings.TrimPrefix(b.URL, "http://"))
	if err != nil {
		return fmt.Errorf("harness: restart %s: %w", b.ID, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.serve(l)
	return nil
}

// Do sends one JSON request to url (the router's or any backend's base
// URL plus a path) and returns the status and body. A transport failure
// is status 0 with the error text as the body.
func (h *Harness) Do(method, url string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, b
}

// Close tears the fleet down. Client connection pools close first: a
// pooled connection that never carried a request is StateNew on its
// server, and http.Server.Shutdown waits five seconds before reaping
// those. The harness client uses the default transport, so this also
// drops the pools of callers on http.DefaultClient or any client with a
// nil Transport. Then the router closes (persisting its live session
// set when durable), every live backend drains (writing its snapshot when
// durable), and the HTTP servers shut down.
func (h *Harness) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.client.CloseIdleConnections()
	h.Router.Close()
	for _, b := range h.backends {
		b.mu.Lock()
		if !b.dead {
			b.Server.Shutdown(ctx)
		}
		b.mu.Unlock()
	}
	for _, b := range h.backends {
		b.mu.Lock()
		b.hs.Shutdown(ctx) // returns at once for a killed backend
		b.mu.Unlock()
	}
	h.rhs.Shutdown(ctx)
}
