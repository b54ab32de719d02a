package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptrace"
	"sync"
	"testing"
	"time"
)

// TestHarnessCloseIsPrompt pins the teardown order: Close drops client
// connection pools before shutting the servers down. A pooled connection
// that never carried a request is StateNew on its server, and
// http.Server.Shutdown only reaps those after five seconds, so dropping
// the pools late turns every fleet teardown into a multi-second stall.
func TestHarnessCloseIsPrompt(t *testing.T) {
	h, err := StartHarness(HarnessConfig{Members: 2, Spares: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close) // a no-op after the timed Close below

	body, _ := json.Marshal(CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	st, raw := h.Do("POST", h.URL+"/sessions", body)
	if st != http.StatusCreated {
		t.Fatalf("create: %d %s", st, raw)
	}
	info := decode[SessionInfo](t, raw)
	body, _ = json.Marshal(AnalyzeRequest{Scheme: "scaf"})
	st, raw = h.Do("POST", h.URL+"/sessions/"+info.ID+"/analyze", body)
	if st != http.StatusOK {
		t.Fatalf("analyze: %d %s", st, raw)
	}
	ar := decode[AnalyzeResponse](t, raw)
	q := ar.Results[0].Queries[0]
	body, _ = json.Marshal(QueryRequest{Scheme: "scaf", Loop: ar.Results[0].Loop, I1: q.I1, I2: q.I2, Rel: q.Rel})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, raw := h.Do("POST", h.URL+"/sessions/"+info.ID+"/query", body); st != http.StatusOK {
				t.Errorf("query: %d %s", st, raw)
			}
		}()
	}
	wg.Wait()

	// Park one connection that never carries a request in the client
	// pool: a request canceled while its connection is dialing leaves the
	// finished dial idle in the pool, StateNew on the spare's server.
	ctx, cancel := context.WithCancel(context.Background())
	dialed := make(chan struct{})
	trace := &httptrace.ClientTrace{
		ConnectStart: func(string, string) { cancel() },
		ConnectDone:  func(string, string, error) { close(dialed) },
	}
	req, _ := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), "GET", h.Spares[0].URL+"/healthz", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	<-dialed
	// The transport pools the finished dial just after ConnectDone, on
	// its own goroutine, and exposes no event for it.
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	h.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v, want under 2s", d)
	}
}
