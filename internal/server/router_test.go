package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
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
// drifted (here: a session created behind the router's back skews one
// backend's session-ID counter) must surface as 502 fleet_inconsistent on
// the next broadcast, never as silently divergent state.
func TestRouterFleetInconsistency(t *testing.T) {
	h := startHarness(t, HarnessConfig{Members: 2})

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
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
// after a restart the router replays the session journal (same IDs,
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
	// surviving backend and journaled for the dead one.
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

	// Restart b1 and rejoin: journal replay + quarantine sync.
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
