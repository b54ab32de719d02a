package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"scaf/internal/persist"
)

// startHarness boots an in-process fleet that is torn down at cleanup.
func startHarness(t *testing.T, cfg HarnessConfig) *Harness {
	t.Helper()
	h, err := StartHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestRouterByteIdentity: the router fronting a 2-backend fleet serves
// responses byte-identical to a single cold instance — session create,
// batch analyze (spliced from a per-loop fan-out), and single queries,
// serially and under parallel load.
func TestRouterByteIdentity(t *testing.T) {
	// Reads route by consistent hash, the router's one policy.
	t.Run("hash", func(t *testing.T) {
		h := startHarness(t, HarnessConfig{Members: 2})
		_, ref := newTestServer(t, Config{})

		req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
		refStatus, refCreate := do(t, ref.URL, "POST", "/sessions", req)
		gotStatus, gotCreate := do(t, h.URL, "POST", "/sessions", req)
		if gotStatus != refStatus || !bytes.Equal(gotCreate, refCreate) {
			t.Fatalf("create diverged: %d %s vs %d %s", gotStatus, gotCreate, refStatus, refCreate)
		}
		info := decode[SessionInfo](t, gotCreate)

		// Serial: full response bodies must match byte for byte.
		refA, refAraw := do(t, ref.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
		gotA, gotAraw := do(t, h.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
		if gotA != refA || !bytes.Equal(gotAraw, refAraw) {
			t.Fatalf("analyze diverged from single instance:\ngot  %.300s\nwant %.300s", gotAraw, refAraw)
		}

		var refResp struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(refAraw, &refResp); err != nil {
			t.Fatal(err)
		}
		var results []WireLoopResult
		raw, _ := json.Marshal(refResp.Results)
		if err := json.Unmarshal(raw, &results); err != nil {
			t.Fatal(err)
		}
		q0 := results[0].Queries[0]
		qreq := QueryRequest{Scheme: "scaf", Loop: results[0].Loop, I1: q0.I1, I2: q0.I2, Rel: q0.Rel}
		refQ, refQraw := do(t, ref.URL, "POST", "/sessions/"+info.ID+"/query", qreq)
		gotQ, gotQraw := do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", qreq)
		if gotQ != refQ || !bytes.Equal(gotQraw, refQraw) {
			t.Fatalf("query diverged:\ngot  %s\nwant %s", gotQraw, refQraw)
		}

		// Parallel: coalescing counters may appear in the envelopes, but
		// every served result must still be the reference bytes.
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if (g+i)%2 == 0 {
						st, raw := do(t, h.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
						if st != http.StatusOK {
							errs <- fmt.Sprintf("parallel analyze: status %d: %.200s", st, raw)
							return
						}
						var got struct {
							Results []json.RawMessage `json:"results"`
						}
						if err := json.Unmarshal(raw, &got); err != nil || len(got.Results) != len(refResp.Results) {
							errs <- fmt.Sprintf("parallel analyze: bad envelope %.200s", raw)
							return
						}
						for j := range got.Results {
							if !bytes.Equal(got.Results[j], refResp.Results[j]) {
								errs <- fmt.Sprintf("parallel analyze: loop %d diverged", j)
								return
							}
						}
					} else {
						st, raw := do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", qreq)
						if st != http.StatusOK {
							errs <- fmt.Sprintf("parallel query: status %d: %.200s", st, raw)
							return
						}
						var got struct {
							Query json.RawMessage `json:"query"`
						}
						var want struct {
							Query json.RawMessage `json:"query"`
						}
						json.Unmarshal(raw, &got)
						json.Unmarshal(refQraw, &want)
						if !bytes.Equal(got.Query, want.Query) {
							errs <- fmt.Sprintf("parallel query diverged: %.200s", got.Query)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}

		// The router's aggregate metrics cover every backend.
		st, raw := do(t, h.URL, "GET", "/metrics", nil)
		if st != http.StatusOK {
			t.Fatalf("router metrics: %d %.200s", st, raw)
		}
		var rm RouterMetrics
		if err := json.Unmarshal(raw, &rm); err != nil {
			t.Fatal(err)
		}
		if len(rm.Backends) != len(h.Members) {
			t.Fatalf("metrics cover %d backends, want %d", len(rm.Backends), len(h.Members))
		}
		if rm.Router.Sessions != 1 {
			t.Fatalf("router counters: %+v", rm.Router)
		}
	})
}

// TestRouterFleetInconsistency: backends whose replicated state has
// drifted (here: a session created behind the router's back takes, on one
// backend, the ID the router mints next) must surface as 502
// fleet_inconsistent on the next broadcast, never as silently divergent
// state.
func TestRouterFleetInconsistency(t *testing.T) {
	h := startHarness(t, HarnessConfig{Members: 2})

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	createSession(t, h.URL, req) // the router's counter is seeded from here on
	if st, raw := do(t, h.Members[0].URL, "POST", "/sessions", req); st != http.StatusCreated {
		t.Fatalf("direct create: %d %s", st, raw)
	}

	st, raw := do(t, h.URL, "POST", "/sessions", req)
	if st != http.StatusBadGateway {
		t.Fatalf("create over skewed fleet: status %d, want 502 (body %.300s)", st, raw)
	}
	if e := decode[ErrorResponse](t, raw); e.Error.Code != "fleet_inconsistent" {
		t.Fatalf("code %q, want fleet_inconsistent", e.Error.Code)
	}
}

// TestRouterBackendLossAndRejoin: killing a backend mid-service refuses
// exactly its shard (503 + Retry-After) while the other keeps answering;
// after a restart the router catches it up with the live sessions (same IDs,
// including sessions created during the outage) and re-syncs quarantine
// state, and the rejoined backend serves byte-identical answers.
func TestRouterBackendLossAndRejoin(t *testing.T) {
	h := startHarness(t, HarnessConfig{Members: 2})
	rt, bA, bB := h.Router, h.Members[0], h.Members[1]

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	info := createSession(t, h.URL, req)
	_, analyzeRaw := do(t, h.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	var ar struct {
		Results []WireLoopResult `json:"results"`
	}
	if err := json.Unmarshal(analyzeRaw, &ar); err != nil {
		t.Fatal(err)
	}

	// Find one query homed on each backend.
	queryFor := func(owner string) *QueryRequest {
		for _, lr := range ar.Results {
			for _, q := range lr.Queries {
				key := "q|" + info.ID + "|scaf|" + lr.Loop + "|" + q.I1 + "|" + q.I2 + "|" + q.Rel
				if rt.ring.Owner(key) == owner {
					return &QueryRequest{Scheme: "scaf", Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel}
				}
			}
		}
		return nil
	}
	qA, qB := queryFor("b0"), queryFor("b1")
	if qA == nil || qB == nil {
		t.Fatalf("query keys did not spread across both shards")
	}
	_, wantQA := do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", *qA)
	_, wantQB := do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", *qB)

	// Kill b1. Its shard is refused; b0's shard keeps answering.
	bB.Kill()
	st, raw := do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", *qB)
	if st != http.StatusServiceUnavailable {
		// The first request may be the one that discovers the death.
		st, raw = do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", *qB)
	}
	if st != http.StatusServiceUnavailable {
		t.Fatalf("query to dead shard: status %d, want 503 (%.300s)", st, raw)
	}
	resp, err := http.Post(h.URL+"/sessions/"+info.ID+"/query", "application/json",
		bytes.NewReader(mustJSON(t, *qB)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("dead shard refusal lacks Retry-After: %d %v", resp.StatusCode, resp.Header)
	}
	if st, got := do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", *qA); st != http.StatusOK || !bytes.Equal(got, wantQA) {
		t.Fatalf("live shard degraded by the dead one: %d %.200s", st, got)
	}

	// Mutations during the outage: a new session is created on the
	// surviving backend and recreated on the dead one at rejoin.
	info2 := createSession(t, h.URL, CreateSessionRequest{Name: "small2", Source: smallSource, Plan: "off"})

	// A violation reported during the outage must reach b1 at rejoin. The
	// session owner may be the dead backend, so report directly to b0 (the
	// fleet broadcast towards the dead peer is tolerated noise).
	keys := harvestAsserts(AnalyzeResponse{Results: ar.Results})
	if len(keys) == 0 {
		t.Fatal("no predicating assertions to violate")
	}
	if st, raw := do(t, bA.URL, "POST", "/sessions/"+info.ID+"/observe",
		ObserveRequest{Violations: []WireViolation{{Assertion: keys[0], Detail: "outage observe"}}}); st != http.StatusOK {
		t.Fatalf("observe on survivor: %d %s", st, raw)
	}
	_, wantQAafter := do(t, bA.URL, "POST", "/sessions/"+info.ID+"/query", *qA)

	// Restart b1 and rejoin: live-set catch-up + quarantine sync.
	if err := bB.Restart(); err != nil {
		t.Fatal(err)
	}
	rt.Probe()
	if rt.isDown("b1") {
		t.Fatal("restarted backend did not rejoin")
	}
	if rt.rejoins.Load() != 1 {
		t.Fatalf("rejoins = %d, want 1", rt.rejoins.Load())
	}

	_, raw = do(t, bB.URL, "GET", "/sessions", nil)
	sessions := decode[[]SessionInfo](t, raw)
	if len(sessions) != 2 || sessions[0].ID != info.ID || sessions[1].ID != info2.ID {
		t.Fatalf("replayed registry = %+v, want [%s %s]", sessions, info.ID, info2.ID)
	}

	// The rejoined backend serves its shard again, with the quarantine
	// applied: answers match the survivor's post-observe bytes.
	_, gotQB := do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", *qB)
	_, wantQBafter := do(t, bA.URL, "POST", "/sessions/"+info.ID+"/query", *qB)
	if !bytes.Equal(gotQB, wantQBafter) {
		t.Fatalf("rejoined shard diverged from survivor:\ngot  %.300s\nwant %.300s", gotQB, wantQBafter)
	}
	if st, got := do(t, h.URL, "POST", "/sessions/"+info.ID+"/query", *qA); st != http.StatusOK || !bytes.Equal(got, wantQAafter) {
		t.Fatalf("survivor shard changed across rejoin: %d", st)
	}
	_ = wantQB // pre-outage reference; post-recovery bytes may legitimately differ

	// Metrics surface the outage and rejoin.
	_, raw = do(t, h.URL, "GET", "/metrics", nil)
	var rm RouterMetrics
	if err := json.Unmarshal(raw, &rm); err != nil {
		t.Fatal(err)
	}
	if rm.Router.Refused == 0 || rm.Router.Rejoins != 1 || len(rm.Router.Down) != 0 {
		t.Fatalf("router counters: %+v", rm.Router)
	}
	if len(rm.Backends) != 2 {
		t.Fatalf("metrics cover %d backends, want 2", len(rm.Backends))
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// listSessions returns a backend's raw GET /sessions body.
func listSessions(t *testing.T, base string) []byte {
	t.Helper()
	st, raw := do(t, base, "GET", "/sessions", nil)
	if st != http.StatusOK {
		t.Fatalf("list sessions: %d %s", st, raw)
	}
	return raw
}

// TestRouterRejoinReplaysLiveSessionsOnly: the router mints one ID per
// create attempt, failed ones included, exactly as a single instance
// does; and a backend restarted empty after 50 create/delete cycles and
// one failed create is caught up with the 2 live sessions only — under
// their IDs, in the survivor's order, answering the same bytes.
func TestRouterRejoinReplaysLiveSessionsOnly(t *testing.T) {
	h := startHarness(t, HarnessConfig{Members: 2})
	_, ref := newTestServer(t, Config{})
	rt, b0, b1 := h.Router, h.Members[0], h.Members[1]

	// create sends one create to the fleet and to the reference; the
	// replies (minted IDs included) must be byte-identical.
	create := func(req CreateSessionRequest) (int, []byte) {
		t.Helper()
		refSt, refRaw := do(t, ref.URL, "POST", "/sessions", req)
		st, raw := do(t, h.URL, "POST", "/sessions", req)
		if st != refSt || !bytes.Equal(raw, refRaw) {
			t.Fatalf("create diverged from a single instance: %d %s vs %d %s", st, raw, refSt, refRaw)
		}
		return st, raw
	}
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	for i := 0; i < 50; i++ {
		_, raw := create(req)
		if st, _ := do(t, h.URL, "DELETE", "/sessions/"+decode[SessionInfo](t, raw).ID, nil); st != http.StatusNoContent {
			t.Fatalf("delete %d: status %d", i, st)
		}
	}
	if st, _ := create(CreateSessionRequest{Name: "broken", Source: "int main( {"}); st != http.StatusUnprocessableEntity {
		t.Fatalf("failed create: status %d", st)
	}
	var live []SessionInfo
	for i := 0; i < 2; i++ {
		_, raw := create(req)
		live = append(live, decode[SessionInfo](t, raw))
	}
	if live[0].ID != "s52" || live[1].ID != "s53" {
		t.Fatalf("live IDs %s %s, want s52 s53", live[0].ID, live[1].ID)
	}

	b1.Kill()
	if err := b1.Restart(); err != nil {
		t.Fatal(err)
	}
	rt.markDown("b1")
	rt.Probe()
	if rt.isDown("b1") {
		t.Fatal("restarted backend did not rejoin")
	}
	// Creates are the only admitted requests a catch-up without quarantine
	// sends, so the fresh backend's accepted count is its create count.
	_, mraw := do(t, b1.URL, "GET", "/metrics", nil)
	if m := decode[MetricsResponse](t, mraw); m.Server.Accepted != 2 {
		t.Fatalf("rejoin sent %d creates, want 2 (the live sessions)", m.Server.Accepted)
	}
	if got, want := listSessions(t, b1.URL), listSessions(t, b0.URL); !bytes.Equal(got, want) {
		t.Fatalf("rejoined registry differs from the survivor's:\ngot  %s\nwant %s", got, want)
	}
	for _, info := range live {
		if got, want := analyzeJSON(t, b1.URL, info.ID), analyzeJSON(t, b0.URL, info.ID); !bytes.Equal(got, want) {
			t.Fatalf("rejoined backend answers %s differently", info.ID)
		}
	}
}

// TestRouterRejoinAppliesMissedMutations: a backend marked down while its
// state is intact misses one create and one delete; the next probe must
// catch it up with both and bring it back.
func TestRouterRejoinAppliesMissedMutations(t *testing.T) {
	h := startHarness(t, HarnessConfig{Members: 2})
	rt := h.Router
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	gone := createSession(t, h.URL, req)
	createSession(t, h.URL, req)

	rt.markDown("b1")
	createSession(t, h.URL, req)
	if st, _ := do(t, h.URL, "DELETE", "/sessions/"+gone.ID, nil); st != http.StatusNoContent {
		t.Fatalf("delete: status %d", st)
	}
	rt.Probe()
	if rt.isDown("b1") {
		t.Fatal("backend with missed mutations stayed down")
	}
	if got, want := listSessions(t, h.Members[1].URL), listSessions(t, h.Members[0].URL); !bytes.Equal(got, want) {
		t.Fatalf("rejoined registry differs:\ngot  %s\nwant %s", got, want)
	}
}

// TestRouterRejoinRefusesDivergentSession: a backend holding a live ID
// whose contents differ from the create the fleet agreed on is never
// brought back by a rejoin, and never admitted by a join.
func TestRouterRejoinRefusesDivergentSession(t *testing.T) {
	h := startHarness(t, HarnessConfig{Members: 2, Spares: 1})
	rt, b1, spare := h.Router, h.Members[1], h.Spares[0]
	info := createSession(t, h.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	other := CreateSessionRequest{Name: "other", Source: smallSource, Plan: "off"}

	b1.Kill()
	if err := b1.Restart(); err != nil {
		t.Fatal(err)
	}
	if st, raw := do(t, b1.URL, "PUT", "/sessions/"+info.ID, other); st != http.StatusCreated {
		t.Fatalf("direct PUT: %d %s", st, raw)
	}
	rt.markDown("b1")
	rt.Probe()
	if !rt.isDown("b1") || rt.rejoins.Load() != 0 {
		t.Fatal("backend with a divergent live session rejoined")
	}

	if st, raw := do(t, spare.URL, "PUT", "/sessions/"+info.ID, other); st != http.StatusCreated {
		t.Fatalf("direct PUT: %d %s", st, raw)
	}
	st, raw := do(t, h.URL, "POST", "/fleet/join", JoinRequest{ID: "j0", URL: spare.URL})
	if st != http.StatusConflict {
		t.Fatalf("join of a divergent backend: %d %s", st, raw)
	}
	if e := decode[ErrorResponse](t, raw); e.Error.Code != "joiner_state" {
		t.Fatalf("code %q, want joiner_state", e.Error.Code)
	}
}

// TestRouterRestartMintsNoCollidingID: a router restarted over a live
// fleet, with its snapshot directory or without one, mints the next ID
// past every ID the backends hold.
func TestRouterRestartMintsNoCollidingID(t *testing.T) {
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache-dir=%v", durable), func(t *testing.T) {
			dir := t.TempDir()
			h := startHarness(t, HarnessConfig{Members: 2, RouterCacheDir: dir})
			req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
			createSession(t, h.URL, req)
			createSession(t, h.URL, req)
			h.Router.Close()

			cfg := RouterConfig{Backends: map[string]string{"b0": h.Members[0].URL, "b1": h.Members[1].URL}}
			if durable {
				cfg.CacheDir = dir
			}
			rt2 := NewRouter(cfg)
			defer rt2.Close()
			rts := httptest.NewServer(rt2.Handler())
			defer rts.Close()

			st, raw := do(t, rts.URL, "POST", "/sessions", req)
			if st != http.StatusCreated {
				t.Fatalf("create through the restarted router: %d %s", st, raw)
			}
			if id := decode[SessionInfo](t, raw).ID; id != "s3" {
				t.Fatalf("restarted router minted %s, want s3", id)
			}
			if got, want := listSessions(t, h.Members[1].URL), listSessions(t, h.Members[0].URL); !bytes.Equal(got, want) {
				t.Fatalf("backends diverged:\n%s\n%s", got, want)
			}
		})
	}
}

// TestRouterPutSession pins the backend's router-facing create: PUT
// /sessions/s<n> creates under that ID and moves the instance's own
// counter past it, a malformed ID is 400 and an existing one 409.
func TestRouterPutSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	for _, id := range []string{"x1", "s", "s0", "s01", "s-1", "s+1", "s1x", "s99999999999"} {
		if st, raw := do(t, ts.URL, "PUT", "/sessions/"+id, req); st != http.StatusBadRequest {
			t.Errorf("PUT %s: status %d, want 400 (%s)", id, st, raw)
		}
	}
	st, raw := do(t, ts.URL, "PUT", "/sessions/s5", req)
	if st != http.StatusCreated || decode[SessionInfo](t, raw).ID != "s5" {
		t.Fatalf("PUT s5: %d %s", st, raw)
	}
	if info := createSession(t, ts.URL, req); info.ID != "s6" {
		t.Fatalf("POST after PUT s5 minted %s, want s6", info.ID)
	}
	// An existing ID is refused before the build: a body that would fail
	// to compile still gets 409, not 422.
	for _, body := range []CreateSessionRequest{req, {Name: "broken", Source: "int main( {"}} {
		st, raw = do(t, ts.URL, "PUT", "/sessions/s5", body)
		if st != http.StatusConflict {
			t.Fatalf("PUT of an existing ID: %d %s", st, raw)
		}
		if e := decode[ErrorResponse](t, raw); e.Error.Code != "session_exists" {
			t.Fatalf("code %q, want session_exists", e.Error.Code)
		}
	}
}

// TestRouterCreateIDAccounting: seeding the ID counter is router-internal
// traffic (not counted as proxied), and a create no backend answered
// hands its ID back, so the router's IDs stay those a single instance
// mints.
func TestRouterCreateIDAccounting(t *testing.T) {
	h := startHarness(t, HarnessConfig{Members: 2})
	rt := h.Router
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	createSession(t, h.URL, req)
	if p := rt.proxied.Load(); p != 2 {
		t.Fatalf("first create proxied %d requests, want 2 (one PUT per backend)", p)
	}
	rt.markDown("b0")
	rt.markDown("b1")
	if st, raw := do(t, h.URL, "POST", "/sessions", req); st != http.StatusServiceUnavailable {
		t.Fatalf("create with no backend up: %d %s", st, raw)
	}
	rt.Probe()
	if info := createSession(t, h.URL, req); info.ID != "s2" {
		t.Fatalf("create after a refused one minted %s, want s2", info.ID)
	}
}

// restartRouter replaces the harness router's process state: a new Router
// over the same backends (and cfg's CacheDir), served on a fresh listener.
func restartRouter(t *testing.T, h *Harness, cfg RouterConfig) (*Router, string) {
	t.Helper()
	h.Router.Close()
	if cfg.Backends == nil {
		cfg.Backends = map[string]string{"b0": h.Members[0].URL, "b1": h.Members[1].URL}
	}
	rt := NewRouter(cfg)
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts.URL
}

// TestRouterRestartKeepsUnknownSessions: a router that lost its live set
// — restarted without a cache directory, or over a router.snap written
// before router-minted IDs, whose journal records stop the load — never
// deletes a session the fleet still holds. A backend whose sessions its
// up peers hold the same way rejoins with them intact; one that lacks
// them stays down, so no member answers 404 where another answers 200.
func TestRouterRestartKeepsUnknownSessions(t *testing.T) {
	oldSnap := func(t *testing.T, h *Harness, dir string, req CreateSessionRequest) {
		t.Helper()
		var records []persist.Record
		for i, m := range h.Members {
			records = append(records, persist.Record{Kind: persist.KindMembers,
				Payload: mustJSON(t, map[string]string{"id": fmt.Sprintf("b%d", i), "url": m.URL})})
		}
		// 'j' was the journal record kind; 's' records carried loops only.
		records = append(records,
			persist.Record{Kind: 'j', Payload: mustJSON(t, map[string]any{"method": "POST", "path": "/sessions", "body": mustJSON(t, req)})},
			persist.Record{Kind: persist.KindSessions, Payload: mustJSON(t, map[string]any{"id": "s1", "loops": []string{}})})
		if err := persist.WriteAtomic(dir, routerSnapFile, persist.EncodeFile(records)); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range []string{"no-cache-dir", "old-snapshot"} {
		t.Run(mode, func(t *testing.T) {
			h := startHarness(t, HarnessConfig{Members: 2})
			req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
			info := createSession(t, h.URL, req)

			var cfg RouterConfig
			if mode == "old-snapshot" {
				// The boot flags name b0 only: b1 is known from the
				// snapshot's membership records alone.
				cfg.CacheDir = t.TempDir()
				oldSnap(t, h, cfg.CacheDir, req)
				cfg.Backends = map[string]string{"b0": h.Members[0].URL}
			}
			rt, url := restartRouter(t, h, cfg)
			served := func() {
				t.Helper()
				for _, m := range h.Members {
					if st, raw := do(t, m.URL, "GET", "/sessions/"+info.ID, nil); st != http.StatusOK {
						t.Fatalf("%s after rejoin: %d %s", info.ID, st, raw)
					}
				}
			}

			rt.markDown("b1")
			rt.Probe()
			if rt.isDown("b1") {
				t.Fatal("backend agreeing with its peer on an unknown session stayed down")
			}
			served()

			b1 := h.Members[1]
			b1.Kill()
			if err := b1.Restart(); err != nil {
				t.Fatal(err)
			}
			rt.markDown("b1")
			rt.Probe()
			if !rt.isDown("b1") {
				t.Fatalf("backend lacking %s rejoined", info.ID)
			}
			if st, _ := do(t, h.Members[0].URL, "GET", "/sessions/"+info.ID, nil); st != http.StatusOK {
				t.Fatalf("%s lost from b0: %d", info.ID, st)
			}
			if info := createSession(t, url, req); info.ID != "s2" {
				t.Fatalf("restarted router minted %s, want s2", info.ID)
			}
		})
	}
}
