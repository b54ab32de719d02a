package oracle

// The fleet pass is the serving-tier analogue of checkServerDrift: where
// that check proves one daemon's HTTP answers equal the library's, this
// one proves a sharded fleet — two backends wired as cache peers behind a
// consistent-hash scaf-router — is indistinguishable, at the byte level,
// from a single cold instance. Every response body is compared verbatim:
// the create envelope (broadcast consensus), the analyze envelope (the
// router splices per-shard fan-out results back into one batch), and every
// dependence query, first serially and then under concurrent fire, where
// remote cache hits and coalescing are actually exercised.
//
// The fleet, persist and elastic passes share their prologue:
// captureGolds replays one session lifecycle against a reference instance
// and the path under test, and the reference bytes both agreed on become
// the golds each pass's later phases must reproduce (replayGolds).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"scaf/internal/server"
)

// fleetQueryCap bounds the per-scheme query set replayed through the
// fleet; random oracle programs rarely exceed it.
const fleetQueryCap = 64

// checkFleetDrift boots the reference instance and the fleet, replays an
// identical session lifecycle against both, and reports any byte
// divergence as KindDriftFleet.
func checkFleetDrift(cfg Config, rep *Report, a *analysis) {
	ref := server.New(server.Config{Workers: 2})
	defer shutdown(ref)
	fl, err := server.StartHarness(server.HarnessConfig{Members: 2, Workers: 2, AutoFlush: 10 * time.Millisecond})
	if err != nil {
		rep.violate(Violation{Kind: KindDriftFleet, Detail: fmt.Sprintf("fleet boot: %v", err)})
		return
	}
	defer fl.Close()

	gs := captureGolds(cfg, rep, a, KindDriftFleet, handlerDoer(ref.Handler()), routerDoer(fl))
	if gs == nil {
		return
	}
	// Parallel phase: the serial golds must survive concurrent fire
	// through the router, where shard fan-out, remote cache hits, and
	// query coalescing all interleave.
	replayGolds(rep, KindDriftFleet, "parallel", gs.golds, true, routerDoer(fl))
}

// doer sends one request down a serving path and returns the status and
// body.
type doer func(method, path string, body []byte) (int, []byte)

// handlerDoer drives an in-process handler, no network.
func handlerDoer(h http.Handler) doer {
	return func(method, path string, body []byte) (int, []byte) { return do(h, method, path, body) }
}

// routerDoer sends requests through a harness fleet's router.
func routerDoer(fl *server.Harness) doer {
	return func(method, path string, body []byte) (int, []byte) { return fl.Do(method, fl.URL+path, body) }
}

// shutdown drains an in-process instance.
func shutdown(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// gold is one request and the reference response that every later phase
// of a pass must reproduce.
type gold struct {
	scheme string
	path   string
	body   []byte
	want   []byte
	query  bool
}

// reproducedBy reports whether a replayed response reproduces the gold.
// Under concurrent fire a query may be coalesced onto an identical
// in-flight one; that marker is timing, not semantics, so it is stripped
// from query bodies there. Everything else is compared verbatim.
func (g gold) reproducedBy(status int, body []byte, concurrent bool) bool {
	if status != http.StatusOK {
		return false
	}
	if concurrent && g.query {
		return bytes.Equal(stripCoalesce(body), stripCoalesce(g.want))
	}
	return bytes.Equal(body, g.want)
}

// goldSession is what captureGolds leaves for the rest of a pass.
type goldSession struct {
	id      string
	create  []byte // the create request body
	created []byte // the reference's create response
	golds   []gold
}

// captureGolds creates the session on ref and target, then per scheme
// sends both the analyze request and up to fleetQueryCap of the queries
// it harvests. Every response pair must be byte-equal and successful;
// anything else is reported as kind. The agreed responses are returned as
// golds, queries tagged so replays know which bodies may carry a coalesce
// marker. It returns nil when the session could not be created.
func captureGolds(cfg Config, rep *Report, a *analysis, kind string, ref, target doer) *goldSession {
	create, _ := json.Marshal(map[string]any{
		"name": a.name, "source": a.src, "plan": "off",
		"hot_loops": map[string]float64{
			"min_weight_frac": cfg.HotLoops.MinWeightFrac,
			"min_avg_iters":   cfg.HotLoops.MinAvgIters,
		},
	})
	rs, rb := ref("POST", "/sessions", create)
	ts, tb := target("POST", "/sessions", create)
	if rs != ts || !bytes.Equal(rb, tb) {
		rep.violate(Violation{Kind: kind,
			Detail: fmt.Sprintf("session create diverges: reference %d %s, target %d %s", rs, rb, ts, tb)})
		return nil
	}
	if rs != http.StatusCreated {
		rep.violate(Violation{Kind: kind,
			Detail: fmt.Sprintf("session load failed on both paths: status %d: %s", rs, rb)})
		return nil
	}
	var info server.SessionInfo
	if err := json.Unmarshal(rb, &info); err != nil {
		rep.violate(Violation{Kind: kind, Detail: fmt.Sprintf("bad session info: %v", err)})
		return nil
	}
	gs := &goldSession{id: info.ID, create: create, created: rb}

	// capture sends one request down both paths and keeps the agreed
	// response as a gold; it returns that response, or nil.
	capture := func(g gold, loop, what string) []byte {
		rs, rb := ref("POST", g.path, g.body)
		ts, tb := target("POST", g.path, g.body)
		switch {
		case rs != ts || !bytes.Equal(rb, tb):
			rep.violate(Violation{Kind: kind, Scheme: g.scheme, Loop: loop,
				Detail: fmt.Sprintf("%s diverges:\n  reference: %d %s\n  target:    %d %s", what, rs, rb, ts, tb)})
		case rs != http.StatusOK:
			rep.violate(Violation{Kind: kind, Scheme: g.scheme, Loop: loop,
				Detail: fmt.Sprintf("%s failed on both paths: status %d: %s", what, rs, rb)})
		default:
			g.want = rb
			gs.golds = append(gs.golds, g)
			return rb
		}
		return nil
	}
	for _, scheme := range cfg.Schemes {
		body, _ := json.Marshal(map[string]any{"scheme": scheme.String()})
		raw := capture(gold{scheme: scheme.String(), path: "/sessions/" + info.ID + "/analyze", body: body}, "", "analyze envelope")
		if raw == nil {
			continue
		}
		var resp server.AnalyzeResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			rep.violate(Violation{Kind: kind, Scheme: scheme.String(),
				Detail: fmt.Sprintf("bad analyze response: %v", err)})
			continue
		}
		n := 0
		for _, lr := range resp.Results {
			for _, q := range lr.Queries {
				if n >= fleetQueryCap {
					break
				}
				n++
				qb, _ := json.Marshal(server.QueryRequest{
					Scheme: scheme.String(), Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel,
				})
				capture(gold{scheme: scheme.String(), path: "/sessions/" + info.ID + "/query", body: qb, query: true},
					lr.Loop, fmt.Sprintf("query %s/%s %s", q.I1, q.I2, q.Rel))
			}
		}
	}
	return gs
}

// replayGolds sends every gold down send — serially, or concurrently with
// at most eight in flight — and reports each response that does not
// reproduce its gold as kind. It returns whether all of them did.
func replayGolds(rep *Report, kind, phase string, golds []gold, concurrent bool, send doer) bool {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ok  = true
		sem = make(chan struct{}, 8)
	)
	check := func(g gold) {
		s, b := send("POST", g.path, g.body)
		if g.reproducedBy(s, b, concurrent) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		ok = false
		rep.violate(Violation{Kind: kind, Scheme: g.scheme,
			Detail: fmt.Sprintf("%s answer diverges from gold:\n  gold: %s\n  got:  %d %s", phase, g.want, s, b)})
	}
	for _, g := range golds {
		if !concurrent {
			check(g)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(g gold) {
			defer wg.Done()
			defer func() { <-sem }()
			check(g)
		}(g)
	}
	wg.Wait()
	return ok
}

// stripCoalesce removes the scheduling-dependent "coalesced" marker from a
// query response before comparison: whether two concurrent identical
// queries share one resolution is timing, not semantics. The query payload
// itself is compared verbatim.
func stripCoalesce(body []byte) []byte {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return body
	}
	resp.Coalesced = false
	out, err := json.Marshal(resp)
	if err != nil {
		return body
	}
	return out
}
