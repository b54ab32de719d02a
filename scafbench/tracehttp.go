package main

import (
	"math/rand"
	"runtime"
	"time"
)

// counters are the serving stack's cumulative counters summed over a
// fleet's backends, read from /metrics.
type counters struct {
	localHits, remoteHits, misses, loopHits int64
	coalesce, rejected                      int64
	sharedHits, queries                     int64
}

func readCounters(c *client, fl *fleet) (counters, error) {
	var s counters
	for _, b := range fl.backends {
		m, err := c.metrics(b)
		if err != nil {
			return s, err
		}
		if m.Fleet != nil {
			s.localHits += m.Fleet.LocalHits
			s.remoteHits += m.Fleet.RemoteHits
			s.misses += m.Fleet.Misses
		}
		s.loopHits += m.Server.FleetLoopHits
		s.coalesce += m.Server.CoalesceHits
		s.rejected += m.Server.Rejected
		for _, sm := range m.Sessions {
			s.sharedHits += sm.Stats.SharedHits
			s.queries += sm.Stats.TopQueries + sm.Stats.PremiseQueries
		}
	}
	return s, nil
}

// tracedReads is the fixed read work of a traced serving run, per caller.
func tracedReads(e *env) int {
	if e.tiny {
		return 200
	}
	return 1500
}

// traceServing is the traced run of both serving workloads: the create
// ledger over progs reconciled against a standalone backend, the router's
// create broadcast cost, the workload's fixed work run untraced and then
// traced (their difference is the tracing overhead, and the traced pass's
// /metrics deltas give the cache and fleet layers), the router hop on the
// same keys, and the library pass for the orchestrator and module layers.
// churn, when non-nil, makes the fixed work one lifecycle round per
// program alongside one read caller; otherwise it is tracedReads reads per
// caller.
func traceServing(e *env, r *result, c *client, w *warm, ref map[string][]byte, progs []*program, rng *rand.Rand, churn []string) error {
	plain, err := bootPlain()
	if err != nil {
		return err
	}
	defer plain.close()
	if err := ledgerStages(e, r, progs, &directCreate{c: c, base: plain.url}); err != nil {
		return err
	}
	if err := routerCreates(e, r, c, w.fl, progs); err != nil {
		return err
	}

	quiet := &client{hc: c.hc}
	var cycles []cycleOut
	roundSeed := rng.Int63()
	work := func(c *client) (*reads, time.Duration) {
		if churn == nil {
			t0 := time.Now()
			n := tracedReads(e)
			rd := readers(e.callers, c, r, w, ref, e.seed, func(ops int) bool { return ops >= n })
			return rd, time.Since(t0)
		}
		// Each pass replays the same seeded round, so the traced pass does
		// the same lifecycles as the untraced one.
		return withReader(c, r, w, ref, e.seed, func(func() int64) {
			cycles = churnRound(c, r, w.fl, ref, churn, rand.New(rand.NewSource(roundSeed)))
		})
	}
	_, plainEl := work(quiet)
	before, err := readCounters(quiet, w.fl)
	if err != nil {
		return err
	}
	rd, tracedEl := work(c)
	after, err := readCounters(quiet, w.fl)
	if err != nil {
		return err
	}
	setOverhead(r, plainEl, tracedEl)

	if q := after.queries - before.queries; q > 0 {
		r.set("cache.hit_frac", float64(after.sharedHits-before.sharedHits)/float64(q), "ratio", int(q))
	}
	r.set("fleet.local_hits", float64(after.localHits-before.localHits), "count", 1)
	r.set("fleet.remote_hits", float64(after.remoteHits-before.remoteHits), "count", 1)
	r.set("fleet.misses", float64(after.misses-before.misses), "count", 1)
	r.set("fleet.loop_hits", float64(after.loopHits-before.loopHits), "count", 1)
	r.set("server.coalesce_hits", float64(after.coalesce-before.coalesce), "count", 1)
	r.set("server.rejected", float64(after.rejected-before.rejected), "count", 1)
	if n := len(rd.queryUS); n > 0 {
		r.set("server.resp_bytes.query", float64(rd.queryBytes)/float64(n), "bytes", n)
	}
	if n := len(rd.analyzeUS); n > 0 {
		r.set("server.resp_bytes.analyze", float64(rd.analyzeBytes)/float64(n), "bytes", n)
	}
	var inv, rer int64
	for _, co := range cycles {
		inv += co.invalidated
		rer += co.reresolved
	}
	r.set("recovery.invalidated", float64(inv), "count", len(cycles))
	r.set("recovery.reresolved", float64(rer), "count", len(cycles))

	if err := routerHop(e, r, quiet, w, ref, rng); err != nil {
		return err
	}
	// The library pass is the reference itself, so its answers are not
	// folded into the digest.
	po := resolvePass(progs, rng.Perm(len(progs)), e.rec, false)
	setSchemeLayers(r, po, moduleNames(progs[0].sys))
	setHTTPLayersAbsent(r)
	r.spans = summarize(e.rec.all())
	return nil
}

// routerCreates serves each program's create through the router; the
// broadcast cost is the excess over the standalone backend's create.
func routerCreates(e *env, r *result, c *client, fl *fleet, progs []*program) error {
	reps := reconcileReps
	via := &directCreate{c: c, base: fl.url}
	var sum float64
	for _, p := range progs {
		var v []float64
		for i := 0; i < reps; i++ {
			runtime.GC()
			d, _, err := via.create(p.name)
			if err != nil {
				return err
			}
			v = append(v, ms(d))
		}
		sum += median(v)
	}
	direct, _ := r.get("server.create_direct_ms")
	r.set("router.create_ms", sum, "ms", len(progs)*reps)
	r.set("router.create_broadcast_ms", sum-direct.Value, "ms", len(progs)*reps)
	return nil
}

// routerHop times the same seeded keys directly against one backend and
// through the router, alternating, after one untimed direct pass has
// warmed that backend's local cache for keys another backend owns.
func routerHop(e *env, r *result, c *client, w *warm, ref map[string][]byte, rng *rand.Rand) error {
	n := 400
	if e.tiny {
		n = 60
	}
	keys := make([]qkey, n)
	for i := range keys {
		keys[i] = w.keys[rng.Intn(len(w.keys))]
	}
	ask := func(base string, k qkey) (float64, error) {
		lat, _, err := query(c, r, ref, base, k)
		return us(lat), err
	}
	b0 := w.fl.backends[0]
	for _, k := range keys {
		if _, err := ask(b0, k); !r.op(err) {
			return err
		}
	}
	var direct, routed []float64
	for _, k := range keys {
		d, err := ask(b0, k)
		if !r.op(err) {
			return err
		}
		v, err := ask(w.fl.url, k)
		if !r.op(err) {
			return err
		}
		direct, routed = append(direct, d), append(routed, v)
	}
	r.set("server.query_direct_p50_us", median(direct), "us", len(direct))
	r.set("router.query_p50_us", median(routed), "us", len(routed))
	r.set("router.hop_us", median(routed)-median(direct), "us", len(routed))
	return nil
}

// setOverhead reports the tracing overhead of one fixed piece of work.
func setOverhead(r *result, plain, traced time.Duration) {
	r.set("trace.untraced_ms", ms(plain), "ms", 1)
	r.set("trace.traced_ms", ms(traced), "ms", 1)
	r.set("trace.overhead_ms", ms(traced-plain), "ms", 1)
	if plain > 0 {
		r.set("trace.overhead_frac", float64(traced-plain)/float64(plain), "ratio", 1)
	}
}

// httpLayers are the per-layer metrics of the serving stack. The library
// workload makes no HTTP call, so it reports each as zero work.
var httpLayers = []struct{ name, unit string }{
	{"cache.hit_frac", "ratio"}, {"fleet.local_hits", "count"}, {"fleet.remote_hits", "count"},
	{"fleet.misses", "count"}, {"fleet.loop_hits", "count"},
	{"recovery.invalidated", "count"}, {"recovery.reresolved", "count"},
	{"server.query_direct_p50_us", "us"}, {"server.create_direct_ms", "ms"},
	{"server.create_overhead_ms", "ms"}, {"server.create_overhead_allocs", "count"},
	{"server.resp_bytes.query", "bytes"},
	{"server.resp_bytes.analyze", "bytes"}, {"server.coalesce_hits", "count"},
	{"server.rejected", "count"}, {"router.hop_us", "us"}, {"router.create_broadcast_ms", "ms"},
}

func setHTTPLayersAbsent(r *result) {
	for _, l := range httpLayers {
		if _, ok := r.get(l.name); !ok {
			r.set(l.name, 0, l.unit, 0)
		}
	}
}
