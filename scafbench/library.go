package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"scaf"
	"scaf/internal/bench"
	"scaf/internal/cfg"
	"scaf/internal/pdg"
	"scaf/internal/server"
	"scaf/internal/trace"
)

// schemes are the three compositions every pass resolves, by wire name.
var schemes = []struct {
	name   string
	scheme scaf.Scheme
}{{"caf", scaf.SchemeCAF}, {"confluence", scaf.SchemeConfluence}, {"scaf", scaf.SchemeSCAF}}

// program is one embedded benchmark program loaded through the facade.
type program struct {
	name  string
	sys   *scaf.System
	loops []*cfg.Loop
}

func loadProgram(name string) (*program, error) {
	src, ok := bench.Sources[name]
	if !ok {
		return nil, fmt.Errorf("no embedded program %q", name)
	}
	sys, err := scaf.Load(name, src, scaf.Options{})
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	p := &program{name: name, sys: sys, loops: sys.HotLoops()}
	if len(p.loops) == 0 {
		return nil, fmt.Errorf("%s has no hot loops", name)
	}
	return p, nil
}

// loadAll loads names in a seeded order and returns them in the given
// order with the wall time the loads took.
func loadAll(names []string, rng *rand.Rand) ([]*program, time.Duration, error) {
	out := make([]*program, len(names))
	t0 := time.Now()
	for _, i := range rng.Perm(len(names)) {
		p, err := loadProgram(names[i])
		if err != nil {
			return nil, 0, err
		}
		out[i] = p
	}
	return out, time.Since(t0), nil
}

// queryKey names one answer independently of the path that produced it.
func queryKey(prog, scheme, loop, i1, i2, rel string) string {
	return prog + "|" + scheme + "|" + loop + "|" + i1 + "|" + i2 + "|" + rel
}

// encodeQuery renders one library answer exactly as the server writes a
// /query answer's "query" field.
func encodeQuery(q *pdg.Query) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(server.EncodeQuery(q)); err != nil {
		panic(err) // a wire struct of strings and numbers always encodes
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// schemeStats is the orchestrator work one pass did under one scheme.
type schemeStats struct {
	elapsed                                 time.Duration
	programs                                int
	topQueries, premiseQueries, moduleEvals int64
	latencies                               []float64 // per top-level query, µs
}

// passOut is one resolve pass: every hot loop of every program under every
// scheme, each (program, scheme) with a fresh orchestrator.
type passOut struct {
	byScheme map[string]*schemeStats
	answers  map[string][]byte
	modules  *trace.Metrics // nil unless the pass was traced
	selfNS   map[string]int64
}

// resolvePass runs one pass. A traced pass records a span per per-scheme
// ResolveLoop and attaches a core.Tracer to every orchestrator; answers are
// encoded only when keep is set (after the timed region).
func resolvePass(progs []*program, order []int, rec *recorder, keep bool) *passOut {
	out := &passOut{byScheme: map[string]*schemeStats{}, answers: map[string][]byte{}}
	if rec != nil {
		out.modules = trace.NewMetrics()
		out.selfNS = map[string]int64{}
	}
	for _, sc := range schemes {
		out.byScheme[sc.name] = &schemeStats{}
	}
	for _, i := range order {
		p := progs[i]
		client := p.sys.Client()
		for _, sc := range schemes {
			st := out.byScheme[sc.name]
			opts := []scaf.OrchOption{scaf.WithLatency()}
			var col *trace.Collector
			if rec != nil {
				col = trace.NewCollector()
				opts = append(opts, scaf.WithTracer(col))
			}
			t0 := time.Now()
			o := p.sys.Orchestrator(sc.scheme, opts...)
			results := make([]*pdg.LoopResult, len(p.loops))
			for li, l := range p.loops {
				sp := rec.begin("pdg.ResolveLoop "+sc.name, nil)
				results[li] = client.ResolveLoop(o, l)
				sp.end()
			}
			st.elapsed += time.Since(t0)
			st.programs++
			ost := o.Stats()
			st.topQueries += ost.TopQueries
			st.premiseQueries += ost.PremiseQueries
			st.moduleEvals += ost.ModuleEvals
			for _, lat := range ost.Latencies {
				st.latencies = append(st.latencies, us(lat))
			}
			if col != nil {
				events := col.Events()
				for _, ev := range events {
					out.modules.Observe(ev)
				}
				addSelfTimes(out.selfNS, events)
			}
			if keep {
				for _, res := range results {
					for qi := range res.Queries {
						q := &res.Queries[qi]
						key := queryKey(p.name, sc.name, res.Loop.Name(),
							server.InstrRef(q.I1), server.InstrRef(q.I2), q.Rel.String())
						out.answers[key] = encodeQuery(q)
					}
				}
			}
		}
	}
	return out
}

// addSelfTimes folds each consult's self time — its duration minus the
// consults nested inside it through premise queries — into self, by
// module. A consult event is emitted when the consult ends, after every
// consult nested in it, so a per-depth accumulator suffices.
func addSelfTimes(self map[string]int64, events []trace.Event) {
	var nested []int64
	at := func(d int) *int64 {
		for len(nested) <= d {
			nested = append(nested, 0)
		}
		return &nested[d]
	}
	for _, ev := range events {
		switch ev.Kind {
		case "top_start":
			nested = nested[:0]
		case "consult":
			inner := at(ev.Depth + 1)
			s := ev.DurNS - *inner
			if s < 0 {
				s = 0
			}
			*inner = 0
			self[ev.Module] += s
			*at(ev.Depth) += ev.DurNS
		}
	}
}

// setSchemeLayers reports the per-scheme orchestrator work of a pass and
// the per-module consult counts and self times.
func setSchemeLayers(r *result, po *passOut, modules []string) {
	var evals, tops int64
	for _, sc := range schemes {
		st := po.byScheme[sc.name]
		pre := "core." + sc.name + "."
		r.set(pre+"resolve_ms", ms(st.elapsed), "ms", st.programs)
		r.set(pre+"top_queries", float64(st.topQueries), "count", 1)
		r.set(pre+"premise_queries", float64(st.premiseQueries), "count", 1)
		r.set(pre+"module_evals", float64(st.moduleEvals), "count", 1)
		evals += st.moduleEvals
		tops += st.topQueries
	}
	if tops > 0 {
		r.set("core.evals_per_query", float64(evals)/float64(tops), "evals/query", int(tops))
	}
	if po.modules == nil {
		return
	}
	for _, name := range modules {
		mm := po.modules.PerModule[name]
		var n int64
		if mm != nil {
			n = mm.Consults
		}
		r.set("module."+name+".evals", float64(n), "count", 1)
		r.set("module."+name+".self_us", float64(po.selfNS[name])/1e3, "us", int(n))
	}
}

// moduleNames lists every analysis and speculation module of the SCAF
// ensemble, in consult order.
func moduleNames(sys *scaf.System) []string {
	var names []string
	for _, m := range sys.Orchestrator(scaf.SchemeSCAF).Modules() {
		names = append(names, m.Name())
	}
	return names
}
