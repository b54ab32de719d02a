package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// churnPrograms are created and deleted over and over; their profiling
// costs span 0.1 s to 0.8 s.
var churnPrograms = []string{"129.compress", "175.vpr", "429.mcf", "482.sphinx3"}

// lifecycleRequests is the number of HTTP requests in one lifecycle.
const lifecycleRequests = 5

// cycleOut is one completed session lifecycle.
type cycleOut struct {
	prog                    string
	createMS, observeMS     float64
	invalidated, reresolved int64
}

// lifecycle runs create → analyze (scaf) → observe one seeded assertion
// from that answer → analyze again → delete, all through the router. Each
// call is one operation; the cycle stops at the first failure.
func lifecycle(c *client, r *result, fl *fleet, ref map[string][]byte, prog string, rng *rand.Rand) (cycleOut, bool) {
	out := cycleOut{prog: prog}
	root := c.rec.begin("lifecycle "+prog, nil)
	defer root.end()
	t0 := time.Now()
	raw, err := c.expect(root, "/sessions", "POST", fl.url+"/sessions", createBody(prog, true), http.StatusCreated)
	out.createMS = ms(time.Since(t0))
	var id string
	if err == nil {
		id, err = sessionID(raw)
	}
	if !r.op(err) {
		return out, false
	}
	base := fl.url + "/sessions/" + id
	ok := func() bool {
		raw, err := c.expect(root, "/sessions/{id}/analyze", "POST", base+"/analyze", map[string]any{"scheme": "scaf"}, http.StatusOK)
		if err == nil {
			err = checkLoops(r, ref, prog, "scaf", raw, 0)
		}
		var offered []string
		if err == nil {
			offered, err = assertionsOffered(raw)
		}
		if err == nil && len(offered) == 0 {
			err = fmt.Errorf("%s: scaf answer offers no assertion to observe", prog)
		}
		if !r.op(err) {
			return false
		}
		victim := offered[rng.Intn(len(offered))]

		t0 := time.Now()
		raw, err = c.expect(root, "/sessions/{id}/observe", "POST", base+"/observe",
			map[string]any{"violations": []map[string]string{{"assertion": victim}}}, http.StatusOK)
		out.observeMS = ms(time.Since(t0))
		if err == nil {
			var or struct {
				NewAsserts  int   `json:"new_asserts"`
				Invalidated int64 `json:"invalidated"`
				Reresolved  int64 `json:"reresolved"`
			}
			if err = json.Unmarshal(raw, &or); err == nil && or.NewAsserts != 1 {
				err = fmt.Errorf("%s: observe quarantined %d assertions, want 1", prog, or.NewAsserts)
			}
			out.invalidated, out.reresolved = or.Invalidated, or.Reresolved
		}
		if !r.op(err) {
			return false
		}

		raw, err = c.expect(root, "/sessions/{id}/analyze", "POST", base+"/analyze", map[string]any{"scheme": "scaf"}, http.StatusOK)
		if err == nil {
			offered, err = assertionsOffered(raw)
		}
		if err == nil {
			for _, a := range offered {
				if a == victim {
					err = fmt.Errorf("%s: re-analysis still offers quarantined %s", prog, victim)
				}
			}
		}
		return r.op(err)
	}()
	_, err = c.expect(root, "/sessions/{id}", "DELETE", base, nil, http.StatusNoContent)
	return out, r.op(err) && ok
}

// assertionsOffered lists, sorted and deduplicated, every assertion any
// option of an /analyze answer would rely on.
func assertionsOffered(raw []byte) ([]string, error) {
	loops, err := decodeAnalyze(raw)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, lr := range loops {
		for _, q := range lr.Queries {
			var wq wireQuery
			if err := json.Unmarshal(q, &wq); err != nil {
				return nil, err
			}
			for _, o := range wq.Options {
				for _, a := range o.Asserts {
					seen[a] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out, nil
}

// churnRound runs one lifecycle per churn program in a seeded order.
func churnRound(c *client, r *result, fl *fleet, ref map[string][]byte, progs []string, rng *rand.Rand) []cycleOut {
	var out []cycleOut
	for _, i := range rng.Perm(len(progs)) {
		if co, ok := lifecycle(c, r, fl, ref, progs[i], rng); ok {
			out = append(out, co)
		}
	}
	return out
}

// withReader runs fn while one closed-loop read caller queries the
// resident sessions, and returns that caller's samples and elapsed time.
// fn is handed the number of reads done so far.
func withReader(c *client, r *result, w *warm, ref map[string][]byte, seed int64, fn func(reads func() int64)) (*reads, time.Duration) {
	var done atomic.Bool
	var count atomic.Int64
	res := make(chan *reads, 1)
	t0 := time.Now()
	go func() {
		res <- readers(1, c, r, w, ref, seed, func(ops int) bool {
			count.Store(int64(ops))
			return done.Load()
		})
	}()
	fn(count.Load)
	done.Store(true)
	rd := <-res
	return rd, time.Since(t0)
}

func churnNames(e *env) []string {
	if e.tiny {
		return []string{"129.compress"}
	}
	return churnPrograms
}

// runChurn drives router + 2 backends with a lifecycle caller and a read
// caller: the write side of the cache layer, and its interference with
// reads.
func runChurn(e *env, r *result) error {
	resident, churn := servingPrograms(e), churnNames(e)
	rng := rand.New(rand.NewSource(e.seed))
	c := newClient(e)
	defer c.close()
	w, err := setupServing(e, r, c, resident, rng)
	if err != nil {
		return err
	}
	defer w.fl.close()
	ref, libProgs, err := libraryAnswers(union(resident, churn))
	if err != nil {
		return err
	}
	for k, v := range w.harvested {
		r.op(checkServed(r, ref, k, v))
	}
	if e.traced {
		var churnProgs []*program
		for _, p := range libProgs {
			for _, n := range churn {
				if p.name == n {
					churnProgs = append(churnProgs, p)
				}
			}
		}
		return traceServing(e, r, c, w, ref, churnProgs, rng, churn)
	}

	// Whole rounds only, so every program contributes equally many
	// create and observe samples.
	var cycles []cycleOut
	deadline := time.Now().Add(e.duration)
	rd, el := withReader(c, r, w, ref, e.seed, func(reads func() int64) {
		for tried := 0; tried < minSamples || reads() < minChurnReads || time.Now().Before(deadline); tried += len(churn) {
			cycles = append(cycles, churnRound(c, r, w.fl, ref, churn, rng)...)
		}
	})
	var creates, observes []float64
	byProg := map[string][]float64{}
	for _, co := range cycles {
		creates = append(creates, co.createMS)
		observes = append(observes, co.observeMS)
		byProg[co.prog] = append(byProg[co.prog], co.createMS)
	}
	// The churn programs' create times differ several-fold, so the pooled
	// median sits in a gap between them; the sum of per-program medians
	// does not.
	var createSet float64
	for _, v := range byProg {
		createSet += median(v)
	}
	n := len(rd.queryUS) + len(rd.analyzeUS)
	r.set("requests_per_s", float64(n)/el.Seconds(), "requests/s", n)
	r.setPct("query_p50_us", rd.queryUS, 50, 1, "us")
	r.setPct("query_p90_us", rd.queryUS, 90, 1, "us")
	r.setPct("query_p99_us", rd.queryUS, 99, 1, "us")
	r.setPct("query_p998_us", rd.queryUS, 99.8, 1, "us")
	r.setPct("create_p50_ms", creates, 50, 1, "ms")
	r.setPct("create_p90_ms", creates, 90, 1, "ms")
	r.set("create_set_ms", createSet, "ms", len(creates))
	r.setPct("observe_p50_ms", observes, 50, 1, "ms")
	r.set("cycles_per_min", float64(len(cycles))/el.Minutes(), "cycles/min", len(cycles))
	r.set("lifecycle_requests_per_s", float64(lifecycleRequests*len(cycles))/el.Seconds(), "requests/s", lifecycleRequests*len(cycles))
	// About 2.5% of reads stall behind a create, so the read rate and the
	// /query p99, which falls inside that stalled share, move with how many
	// stalls a run happens to draw: their spread across runs exceeds the
	// gate's bound. The gate takes the lifecycle caller's rate and the
	// stalled reads' ceiling (p99.8) instead; both are printed.
	alias(r, "ops_per_s", "lifecycle_requests_per_s", "1/s")
	alias(r, "op_p50_us", "query_p50_us", "us")
	alias(r, "op_tail_us", "query_p998_us", "us")
	alias(r, "heavy_p50_ms", "create_set_ms", "ms")
	return nil
}

func union(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(append([]string(nil), a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
