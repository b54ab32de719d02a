package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// pdgColdPrograms have the suite's highest ratio of analysis work to
// profiling cost.
var pdgColdPrograms = []string{"175.vpr", "183.equake", "456.hmmer", "525.x264", "164.gzip", "129.compress"}

// runPDGCold drives the library path with one caller: every pass resolves
// every hot loop under CAF, confluence and SCAF with fresh orchestrators,
// so nothing is cached across passes.
func runPDGCold(e *env, r *result) error {
	names := pdgColdPrograms
	if e.tiny {
		names = []string{"129.compress"}
	}
	rng := rand.New(rand.NewSource(e.seed))
	var progs []*program
	var setups []float64
	for i := 0; i < setupReps(e); i++ {
		progs = nil
		runtime.GC() // the previous set-up's programs are not part of this one's peak
		ps, d, err := loadAll(names, rng)
		if err != nil {
			return err
		}
		progs = ps
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", median(setups), "s", len(setups))

	if e.traced {
		return tracePDGCold(e, r, progs, rng)
	}
	var (
		tops, passes int64
		busy         time.Duration
		lats         []float64
		passMS       []float64
	)
	deadline := time.Now().Add(e.duration)
	for passes < minSamples || time.Now().Before(deadline) {
		po := resolvePass(progs, rng.Perm(len(progs)), nil, true)
		passes++
		var pass time.Duration
		for _, sc := range schemes {
			st := po.byScheme[sc.name]
			tops += st.topQueries
			pass += st.elapsed
			lats = append(lats, st.latencies...)
		}
		busy += pass
		passMS = append(passMS, ms(pass))
		checkAnswers(r, po.answers)
	}
	r.set("resolves_per_s", float64(tops)/busy.Seconds(), "queries/s", int(tops))
	r.setPct("resolve_p50_us", lats, 50, 1, "us")
	r.setPct("resolve_p99_us", lats, 99, 1, "us")
	r.setPct("pass_p50_ms", passMS, 50, 1, "ms")
	r.set("passes", float64(passes), "count", 1)
	alias(r, "ops_per_s", "resolves_per_s", "1/s")
	alias(r, "op_p50_us", "resolve_p50_us", "us")
	alias(r, "op_tail_us", "resolve_p99_us", "us")
	alias(r, "heavy_p50_ms", "pass_p50_ms", "ms")
	return nil
}

// checkAnswers folds a pass's answers into the digest; one operation per
// top-level query.
func checkAnswers(r *result, answers map[string][]byte) {
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.op(r.answer(k, answers[k]))
	}
}

// tracePDGCold is the traced run: the create-stage ledger over the
// workload's programs, then one untraced and one traced pass over the same
// fixed work, whose difference is the tracing overhead.
func tracePDGCold(e *env, r *result, progs []*program, rng *rand.Rand) error {
	if err := ledgerStages(e, r, progs, nil); err != nil {
		return err
	}
	order := rng.Perm(len(progs))
	t0 := time.Now()
	resolvePass(progs, order, nil, false)
	plain := time.Since(t0)
	t0 = time.Now()
	po := resolvePass(progs, order, e.rec, true)
	traced := time.Since(t0)
	checkAnswers(r, po.answers)
	setSchemeLayers(r, po, moduleNames(progs[0].sys))
	setOverhead(r, plain, traced)
	setHTTPLayersAbsent(r)
	r.spans = summarize(e.rec.all())
	return nil
}
