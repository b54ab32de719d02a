package profile

import (
	"sort"
	"sync"

	"scaf/internal/cfg"
	"scaf/internal/interp"
)

// Data bundles every profile one training run produces. It is the input
// the speculation modules consume.
type Data struct {
	Prog      *cfg.Program
	Edge      *EdgeProfile
	Value     *ValueProfile
	PointsTo  *PointsToProfile
	Residue   *ResidueProfile
	Lifetime  *LifetimeProfile
	Steps     int64
	Output    []string
	LoopStats map[*cfg.Loop]*LoopStat

	// runOpts are the step and depth budgets of the training run, which
	// the on-demand memory-dependence run repeats.
	runOpts    interp.Options
	memdepOnce sync.Once
	memdep     *MemDepProfile
}

// Collect runs the program once under the loop tracker and the edge,
// value, points-to, residue and lifetime profilers ("the train input
// run") and returns the gathered profiles. The memory-dependence profile,
// which only the memory-speculation baseline reads, is not collected
// here: MemDep runs it on first use.
func Collect(prog *cfg.Program, opts interp.Options) (*Data, error) {
	tracker := NewTracker(prog)
	d := &Data{
		Prog:     prog,
		Edge:     NewEdgeProfile(prog.Mod),
		Value:    NewValueProfile(),
		PointsTo: NewPointsToProfile(tracker),
		Residue:  NewResidueProfile(),
		Lifetime: NewLifetimeProfile(tracker),
		runOpts:  interp.Options{MaxSteps: opts.MaxSteps, MaxDepth: opts.MaxDepth},
	}
	// One numbering serves every profiler of the run.
	d.Edge.use(tracker.ix)
	d.Value.use(tracker.ix)
	d.Residue.use(tracker.ix)

	if main := prog.Mod.FuncNamed("main"); main != nil {
		tracker.Begin(main)
	}
	// The tracker MUST observe first so loop state is current when the
	// loop-sensitive profilers see the same event.
	opts.Observers = append([]interp.Observer{
		tracker, d.Edge, d.Value, d.PointsTo, d.Residue, d.Lifetime,
	}, opts.Observers...)

	res, err := interp.Run(prog.Mod, opts)
	if err != nil {
		return nil, err
	}
	d.Edge.Finish()
	d.PointsTo.Finish()
	d.Residue.Finish()
	d.Steps = res.Steps
	d.Output = res.Output
	d.LoopStats = d.Edge.LoopStats(prog)
	return d, nil
}

// MemDep returns the loop-aware memory-dependence profile, running the
// program once more under the loop tracker and that profiler alone on
// first use, with the training run's step and depth budgets. Concurrent
// first calls share the one run. Should that run fail, the profile is
// conservative: every dependence counts as observed, so the memory-
// speculation baseline disproves nothing.
func (d *Data) MemDep() *MemDepProfile {
	d.memdepOnce.Do(func() {
		tracker := NewTracker(d.Prog)
		p := NewMemDepProfile(tracker)
		tracker.Begin(d.Prog.Mod.FuncNamed("main"))
		opts := d.runOpts
		opts.Observers = []interp.Observer{tracker, p}
		if _, err := interp.Run(d.Prog.Mod, opts); err != nil {
			d.memdep = &MemDepProfile{conservative: true}
			return
		}
		// Queries read only the dependence table.
		p.tracker, p.shadow, p.odd = nil, nil, nil
		d.memdep = p
	})
	return d.memdep
}

// HotLoopParams mirrors the paper's hot-loop selection (§5): loops that
// account for at least MinWeightFrac of the dynamic instruction count and
// iterate at least MinAvgIters times per invocation on average.
type HotLoopParams struct {
	MinWeightFrac float64 // default 0.10
	MinAvgIters   float64 // default 50
}

// DefaultHotLoopParams returns the paper's thresholds.
func DefaultHotLoopParams() HotLoopParams {
	return HotLoopParams{MinWeightFrac: 0.10, MinAvgIters: 50}
}

// HotLoops selects hot loops, heaviest first.
func (d *Data) HotLoops(p HotLoopParams) []*cfg.Loop {
	var out []*cfg.Loop
	for l, st := range d.LoopStats {
		if d.Steps == 0 {
			continue
		}
		frac := float64(st.Weight) / float64(d.Steps)
		if frac >= p.MinWeightFrac && st.AvgIters() >= p.MinAvgIters {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		wi, wj := d.LoopStats[out[i]].Weight, d.LoopStats[out[j]].Weight
		if wi != wj {
			return wi > wj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// LoopWeightFrac returns the fraction of dynamic instructions spent in l.
func (d *Data) LoopWeightFrac(l *cfg.Loop) float64 {
	if d.Steps == 0 {
		return 0
	}
	return float64(d.LoopStats[l].Weight) / float64(d.Steps)
}
