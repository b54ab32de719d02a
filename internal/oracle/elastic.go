package oracle

// The elastic pass proves that live membership change is invisible at the
// byte level. It boots the same two-backend fleet as checkFleetDrift plus
// one spare backend, captures serial golds through the router, then joins
// the spare WHILE concurrent clients hammer those golds — every request
// must end in the gold bytes, with bounded 503 backend_down retries (the
// drained-cutover window) as the only permitted detour. After the join the
// golds must replay byte-identically through the grown fleet, and the
// joiner must actually serve from the state the cutover streamed to it
// (nonvacuity: its loop lookaside hits, checked whenever the new ring
// moves at least one analyze key onto it). Then one original backend
// leaves and the shrunk fleet must still serve the same bytes. Throughout,
// the router must report zero broadcast inconsistencies and zero rollbacks
// — a planned move never manufactures split brain.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"scaf/internal/fleet"
	"scaf/internal/server"
)

// elasticRetryCap bounds how many 503 retries one hammered request may
// burn before the window counts as unbounded (a violation).
const elasticRetryCap = 400

// elasticRetryDelay spaces those retries. The router advertises
// Retry-After: 1 (whole seconds); the cutover window on loopback is far
// shorter, so the pass retries at a twentieth of that.
const elasticRetryDelay = 50 * time.Millisecond

func checkElasticDrift(cfg Config, rep *Report, a *analysis) {
	ref := server.New(server.Config{Workers: 2})
	defer shutdown(ref)
	fl, err := server.StartHarness(server.HarnessConfig{Members: 2, Spares: 1, Workers: 2,
		AutoFlush: 10 * time.Millisecond, DrainTimeout: 15 * time.Second})
	if err != nil {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("elastic fleet boot: %v", err)})
		return
	}
	defer fl.Close()
	router, joiner := routerDoer(fl), fl.Spares[0]

	// Serial phase: golds through the static two-backend fleet.
	gs := captureGolds(cfg, rep, a, KindDriftElastic, handlerDoer(ref.Handler()), router)
	if gs == nil || len(gs.golds) == 0 {
		return
	}
	// Let the backends' AutoFlush publish resolved entries to their ring
	// owners, so the join actually has warm segments to stream.
	time.Sleep(50 * time.Millisecond)

	// Join phase: grow the fleet while concurrent clients replay every
	// gold. A bounded run of 503 backend_down on moving segments is the
	// only detour the cutover may show them; the final bytes must be gold.
	joinBody, _ := json.Marshal(server.JoinRequest{ID: joiner.ID, URL: joiner.URL})
	var (
		js     int
		jb     []byte
		joined = make(chan struct{})
	)
	go func() {
		defer close(joined)
		js, jb = router("POST", "/fleet/join", joinBody)
	}()
	replayGolds(rep, KindDriftElastic, "under live join", gs.golds, true, retryMoving(router))
	<-joined
	if js != http.StatusOK {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("join failed: %d %s", js, jb)})
		return
	}
	var joinRep server.MoveReport
	if err := json.Unmarshal(jb, &joinRep); err != nil {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("bad join report: %v", err)})
		return
	}

	// Post-join serial replay: the grown fleet must serve the same bytes,
	// including on segments now owned by the joiner.
	if !replayGolds(rep, KindDriftElastic, "post-join", gs.golds, false, router) {
		return
	}

	// Nonvacuity: if the grown ring moved at least one analyze segment
	// onto the joiner, the post-join replay above routed those loops to it
	// and its loop lookaside — warmed by the streamed segments and its new
	// peers — must have hit. Byte equality achieved by silently recomputing
	// everything from scratch would pass the replay; this catches it.
	grown := fleet.NewRing([]string{"b0", "b1", joiner.ID}, 0)
	movedAnalyze := 0
	for _, scheme := range cfg.Schemes {
		for _, l := range a.hot {
			if grown.Owner("a|"+gs.id+"|"+scheme.String()+"|"+l.Name()) == joiner.ID {
				movedAnalyze++
			}
		}
	}
	if movedAnalyze > 0 {
		// Read the joiner's own /metrics (not through the router), so its
		// lookaside counters are observed, not inferred.
		var jm server.MetricsResponse
		if st, mb := fl.Do("GET", joiner.URL+"/metrics", nil); st != http.StatusOK || json.Unmarshal(mb, &jm) != nil {
			rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("joiner metrics unreadable: %d %s", st, mb)})
			return
		}
		rep.ElasticWarmHits += jm.Server.FleetLoopHits
		if jm.Server.FleetLoopHits == 0 {
			rep.violate(Violation{Kind: KindDriftElastic,
				Detail: fmt.Sprintf("%d analyze segments moved to the joiner (join streamed %d entries) but its loop lookaside never hit",
					movedAnalyze, joinRep.EntriesInserted)})
		}
	}

	// Leave phase: the dual. An original owner departs, handing its
	// segments to the survivors; the shrunk fleet must still serve gold.
	leaveBody, _ := json.Marshal(server.LeaveRequest{ID: "b0"})
	ls, lb := router("POST", "/fleet/leave", leaveBody)
	if ls != http.StatusOK {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("leave failed: %d %s", ls, lb)})
		return
	}
	if !replayGolds(rep, KindDriftElastic, "post-leave", gs.golds, false, router) {
		return
	}

	// A planned move must never manufacture split brain or wedge the
	// router: zero broadcast inconsistencies, zero rollbacks, no move
	// still pending.
	ms, mb := router("GET", "/metrics", nil)
	var rm server.RouterMetrics
	if ms != http.StatusOK || json.Unmarshal(mb, &rm) != nil {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("router metrics unreadable: %d %s", ms, mb)})
		return
	}
	rc := rm.Router
	if rc.Inconsistent != 0 || rc.Rollbacks != 0 || rc.Pending != "" || rc.Joins != 1 || rc.Leaves != 1 {
		rep.violate(Violation{Kind: KindDriftElastic,
			Detail: fmt.Sprintf("router counters after join+leave: inconsistent=%d rollbacks=%d pending=%q joins=%d leaves=%d",
				rc.Inconsistent, rc.Rollbacks, rc.Pending, rc.Joins, rc.Leaves)})
	}
}

// retryMoving wraps send so that 503 backend_down responses — the
// drained-cutover window — are retried, at most elasticRetryCap times.
func retryMoving(send doer) doer {
	return func(method, path string, body []byte) (int, []byte) {
		for retries := 0; ; retries++ {
			s, b := send(method, path, body)
			if s != http.StatusServiceUnavailable || retries >= elasticRetryCap {
				return s, b
			}
			time.Sleep(elasticRetryDelay)
		}
	}
}
