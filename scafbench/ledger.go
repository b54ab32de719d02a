package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"scaf"
	"scaf/internal/bench"
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/pdg"
	"scaf/internal/profile"
	"scaf/internal/recovery"
)

// The create stages, in the order the server's create path runs them.
// Each names the span the replay records and the entry point it times.
const (
	stCompile  = "lower.Compile"
	stProgram  = "cfg.NewProgram"
	stCollect  = "profile.Collect"
	stHotLoops = "profile.HotLoops"
	stPlan     = "pdg.BuildPlan"
	stValidate = "validate.Check"
	stMint     = "core.NewOrchestrator x3"
)

var createStages = []string{stCompile, stProgram, stCollect, stHotLoops, stPlan, stValidate, stMint}

// stageOut is one in-process replay of a session create.
type stageOut struct {
	dur map[string]time.Duration // by stage

	instrs, planTop, planEvals, assertions, checks int64
	// allocs counts heap allocations across all stages, collectAllocs
	// those of profiling alone.
	allocs, collectAllocs int64
}

func (s stageOut) total() time.Duration {
	var t time.Duration
	for _, d := range s.dur {
		t += d
	}
	return t
}

// replayCreate compiles, profiles, plans, validates and mints one program's
// orchestrators through the public entry points, recording a span per
// stage.
func replayCreate(rec *recorder, name string) (stageOut, error) {
	s := stageOut{dur: map[string]time.Duration{}}
	src := bench.Sources[name]
	root := rec.begin("create "+name, nil)
	defer root.end()
	stage := func(label string, fn func() error) error {
		sp := rec.begin(label, root)
		a0 := mallocs()
		t0 := time.Now()
		err := fn()
		s.dur[label] = time.Since(t0)
		n := mallocs() - a0
		sp.end()
		s.allocs += n
		if label == stCollect {
			s.collectAllocs = n
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, label, err)
		}
		return nil
	}
	var (
		mod     *ir.Module
		prog    *cfg.Program
		data    *profile.Data
		hot     []*cfg.Loop
		asserts []core.Assertion
	)
	if err := stage(stCompile, func() (err error) {
		mod, err = scaf.Compile(name, src)
		return err
	}); err != nil {
		return s, err
	}
	for _, fn := range mod.Funcs {
		fn.Instrs(func(*ir.Instr) { s.instrs++ })
	}
	_ = stage(stProgram, func() error {
		prog = cfg.NewProgram(mod)
		return nil
	})
	if err := stage(stCollect, func() (err error) {
		data, err = profile.Collect(prog, interp.Options{})
		return err
	}); err != nil {
		return s, err
	}
	_ = stage(stHotLoops, func() error {
		hot = data.HotLoops(profile.DefaultHotLoopParams())
		return nil
	})
	sys := &scaf.System{Mod: mod, Prog: prog, Profiles: data}
	_ = stage(stPlan, func() error {
		client := sys.Client()
		o := sys.Orchestrator(scaf.SchemeSCAF,
			scaf.WithJoin(core.JoinAll), scaf.WithBailout(core.BailExhaustive))
		seen := map[string]bool{}
		for _, l := range hot {
			p := pdg.BuildPlan(client.ResolveLoop(o, l).Queries)
			for _, a := range p.Assertions {
				if k := a.String(); !seen[k] {
					seen[k] = true
					asserts = append(asserts, a)
				}
			}
		}
		s.planTop, s.planEvals = o.Stats().TopQueries, o.Stats().ModuleEvals
		s.assertions = int64(len(asserts))
		return nil
	})
	if len(asserts) > 0 {
		if err := stage(stValidate, func() error {
			rep, err := sys.Validate(asserts)
			if err != nil {
				return err
			}
			s.checks = rep.Checks
			if rep.Failed() {
				return fmt.Errorf("%d violations", len(rep.Violations))
			}
			return nil
		}); err != nil {
			return s, err
		}
	}
	_ = stage(stMint, func() error {
		q := recovery.New()
		for _, sc := range schemes {
			cache := core.NewSharedCache()
			cache.SetRevoker(q)
			sys.Orchestrator(sc.scheme, scaf.WithSharedCache(cache), scaf.WithLatency(),
				scaf.WithModuleWrapper(recovery.Wrapper(q)), scaf.WithPanicIsolation(nil))
		}
		return nil
	})
	return s, nil
}

// bareRun interprets the program once with no observer: the baseline the
// profiling run's slowdown is measured against. It is not a create stage.
func bareRun(rec *recorder, prog *cfg.Program) (time.Duration, int64, error) {
	sp := rec.begin("interp.Run", nil)
	defer sp.end()
	t0 := time.Now()
	res, err := interp.Run(prog.Mod, interp.Options{})
	if err != nil {
		return 0, 0, err
	}
	return time.Since(t0), res.Steps, nil
}

// profilers are the observers profile.Collect registers after the loop
// tracker, by the name their marginal cost is reported under.
var profilers = []struct {
	name string
	mk   func(prog *cfg.Program, t *profile.Tracker) interp.Observer
}{
	{"edge", func(p *cfg.Program, _ *profile.Tracker) interp.Observer { return profile.NewEdgeProfile(p.Mod) }},
	{"value", func(*cfg.Program, *profile.Tracker) interp.Observer { return profile.NewValueProfile() }},
	{"pointsto", func(_ *cfg.Program, t *profile.Tracker) interp.Observer { return profile.NewPointsToProfile(t) }},
	{"residue", func(*cfg.Program, *profile.Tracker) interp.Observer { return profile.NewResidueProfile() }},
	{"lifetime", func(_ *cfg.Program, t *profile.Tracker) interp.Observer { return profile.NewLifetimeProfile(t) }},
	{"memdep", func(_ *cfg.Program, t *profile.Tracker) interp.Observer { return profile.NewMemDepProfile(t) }},
}

// collectWithout runs the profiling execution with every profiler but
// skip (none when skip is empty); the loop tracker always stays.
func collectWithout(prog *cfg.Program, skip string) (time.Duration, error) {
	t0 := time.Now()
	tracker := profile.NewTracker(prog)
	obs := []interp.Observer{tracker}
	for _, p := range profilers {
		if p.name != skip {
			obs = append(obs, p.mk(prog, tracker))
		}
	}
	if main := prog.Mod.FuncNamed("main"); main != nil {
		tracker.Begin(main)
	}
	_, err := interp.Run(prog.Mod, interp.Options{Observers: obs})
	return time.Since(t0), err
}

// marginals returns each profiler's marginal cost on prog: per rep, the
// full profiling run minus the run without that profiler, measured back to
// back so drift between reps cancels; the median over reps.
func marginals(prog *cfg.Program, reps int) (map[string]float64, error) {
	diffs := map[string][]float64{}
	for i := 0; i < reps; i++ {
		full, err := collectWithout(prog, "")
		if err != nil {
			return nil, err
		}
		for _, p := range profilers {
			d, err := collectWithout(prog, p.name)
			if err != nil {
				return nil, fmt.Errorf("profile without %s: %w", p.name, err)
			}
			diffs[p.name] = append(diffs[p.name], ms(full-d))
		}
	}
	out := map[string]float64{}
	for k, v := range diffs {
		out[k] = median(v)
	}
	return out, nil
}

// reconcileRow sets one program's summed create stages against the same
// create served by a standalone backend; the remainder is what the stages
// do not account for (HTTP, JSON, session bookkeeping).
type reconcileRow struct {
	Program  string  `json:"program"`
	StagesMS float64 `json:"stages_ms"`
	DirectMS float64 `json:"direct_ms"`
	// RemainderMS is the median over reps of the direct create minus the
	// replay run just before it; NoiseMS is half the interquartile range
	// of those differences, the resolution the remainder is known to.
	RemainderMS float64 `json:"remainder_ms"`
	NoiseMS     float64 `json:"noise_ms"`
	// RemainderAllocs is the same comparison in heap allocations, a count
	// that timing noise does not blur.
	RemainderAllocs float64 `json:"remainder_allocs"`
}

// ledgerReps is how many times each create is replayed; reconcileReps
// replaces it when each replay is paired with a served create, whose
// small remainder needs more pairs to settle.
const (
	ledgerReps    = 3
	reconcileReps = 7
)

// marginalReps is how many reps the profiler marginals take; each costs
// seven profiling runs.
const marginalReps = 2

// programLedger is one program's share of the ledger.
type programLedger struct {
	stageMS  map[string]float64 // median per stage, plus the bare run
	totalMS  float64            // median of the replays' summed stages
	counts   stageOut           // counts of the first replay
	steps    int64
	marginal map[string]float64
	row      reconcileRow // zero unless the creates were also served
}

// measureProgram replays p's create reps times and, given a target, pairs
// each replay with a served create, alternating which of the two runs
// first so an order effect cancels in the median difference.
func measureProgram(rec *recorder, p *program, reps int, direct *directCreate) (*programLedger, error) {
	pl := &programLedger{stageMS: map[string]float64{}}
	var runs []stageOut
	var totals, bares, directs, diffs, allocDiffs []float64
	for i := 0; i < reps; i++ {
		d, steps, err := bareRun(rec, p.sys.Prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		bares = append(bares, ms(d))
		pl.steps = steps

		var (
			served       time.Duration
			servedAllocs int64
			serveErr     error
		)
		serve := func() {
			runtime.GC()
			served, servedAllocs, serveErr = direct.create(p.name)
		}
		directFirst := direct != nil && i%2 == 1
		if directFirst {
			serve()
		}
		runtime.GC() // no garbage from earlier work lands in this create
		s, err := replayCreate(rec, p.name)
		if err != nil {
			return nil, err
		}
		runs = append(runs, s)
		totals = append(totals, ms(s.total()))
		if direct == nil {
			continue
		}
		if !directFirst {
			serve()
		}
		if serveErr != nil {
			return nil, serveErr
		}
		directs = append(directs, ms(served))
		diffs = append(diffs, ms(served-s.total()))
		allocDiffs = append(allocDiffs, float64(servedAllocs-s.allocs))
	}
	for _, st := range createStages {
		var v []float64
		for _, s := range runs {
			v = append(v, ms(s.dur[st]))
		}
		pl.stageMS[st] = median(v)
	}
	pl.stageMS["bare"] = median(bares)
	pl.totalMS = median(totals)
	pl.counts = runs[0]
	m, err := marginals(p.sys.Prog, marginalReps)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	pl.marginal = m
	if direct != nil {
		pl.row = reconcileRow{p.name, pl.totalMS, median(directs), median(diffs), iqr(diffs) / 2, median(allocDiffs)}
	}
	return pl, nil
}

// ledgerStages measures every program's create stages and profiler
// marginals and — given a standalone backend — reconciles the stages
// against the same creates served by it. Times are per-program medians and
// counts per-program values, both summed over the workload's programs.
func ledgerStages(e *env, r *result, progs []*program, direct *directCreate) error {
	reps := ledgerReps
	if direct != nil {
		reps = reconcileReps
	}
	var (
		stage, marginal                 = map[string]float64{}, map[string]float64{}
		counts                          stageOut
		steps                           int64
		stagesMS, directMS, remMS, remA float64
	)
	for _, p := range progs {
		pl, err := measureProgram(e.rec, p, reps, direct)
		if err != nil {
			return err
		}
		for k, v := range pl.stageMS {
			stage[k] += v
		}
		for k, v := range pl.marginal {
			marginal[k] += v
		}
		c := pl.counts
		counts.instrs += c.instrs
		counts.planTop += c.planTop
		counts.planEvals += c.planEvals
		counts.assertions += c.assertions
		counts.checks += c.checks
		counts.allocs += c.allocs
		counts.collectAllocs += c.collectAllocs
		steps += pl.steps
		stagesMS += pl.totalMS
		if direct != nil {
			r.reconcile = append(r.reconcile, pl.row)
			directMS += pl.row.DirectMS
			remMS += pl.row.RemainderMS
			remA += pl.row.RemainderAllocs
		}
	}
	n := len(progs) * reps
	r.set("lower.compile_ms", stage[stCompile], "ms", n)
	r.set("ir.instrs", float64(counts.instrs), "count", 1)
	r.set("interp.bare_ms", stage["bare"], "ms", n)
	r.set("interp.steps", float64(steps), "count", 1)
	r.set("interp.steps_per_s", float64(steps)/(stage["bare"]/1e3), "steps/s", n)
	r.set("profile.collect_ms", stage[stCollect], "ms", n)
	r.set("profile.steps_per_s", float64(steps)/(stage[stCollect]/1e3), "steps/s", n)
	r.set("profile.slowdown_x", stage[stCollect]/stage["bare"], "x", n)
	for _, pr := range profilers {
		r.set("profile."+pr.name+".marginal_ms", marginal[pr.name], "ms", len(progs)*marginalReps)
	}
	r.set("profile.hotloops_us", stage[stHotLoops]*1e3, "us", n)
	r.set("profile.collect_allocs", float64(counts.collectAllocs), "count", 1)
	r.set("plan.resolve_ms", stage[stPlan], "ms", n)
	r.set("plan.top_queries", float64(counts.planTop), "count", 1)
	r.set("plan.module_evals", float64(counts.planEvals), "count", 1)
	r.set("plan.assertions", float64(counts.assertions), "count", 1)
	r.set("validate.ms", stage[stValidate], "ms", n)
	r.set("validate.checks", float64(counts.checks), "count", 1)
	r.set("core.mint_ms", stage[stMint], "ms", n)
	r.set("create.stages_ms", stagesMS, "ms", n)
	r.set("create.stages_allocs", float64(counts.allocs), "count", 1)
	if direct != nil {
		r.set("server.create_direct_ms", directMS, "ms", n)
		r.set("server.create_overhead_ms", remMS, "ms", n)
		r.set("server.create_overhead_allocs", remA, "count", n)
	}
	return nil
}

// directCreate serves scoped creates on one target, deleting each session
// again so every create starts from the same state.
type directCreate struct {
	c    *client
	base string
}

// create serves one create and returns its latency and the heap
// allocations the whole process made meanwhile (the target is in-process).
func (d *directCreate) create(name string) (time.Duration, int64, error) {
	a0 := mallocs()
	t0 := time.Now()
	raw, err := d.c.expect(nil, "/sessions", "POST", d.base+"/sessions", createBody(name, true), http.StatusCreated)
	el := time.Since(t0)
	allocs := mallocs() - a0
	if err != nil {
		return 0, 0, err
	}
	id, err := sessionID(raw)
	if err != nil {
		return 0, 0, err
	}
	_, err = d.c.expect(nil, "/sessions/{id}", "DELETE", d.base+"/sessions/"+id, nil, http.StatusNoContent)
	return el, allocs, err
}

// mallocs is the process's cumulative count of heap allocations.
func mallocs() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Mallocs)
}
