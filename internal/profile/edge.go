package profile

import (
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// EdgeKey identifies a CFG edge.
type EdgeKey struct{ From, To *ir.Block }

// EdgeProfile counts block executions and edge traversals — the profile
// control speculation consumes (paper: never-executed blocks are the
// speculatively dead ones).
//
// While the program runs it counts into per-block slices; Finish
// materializes the BlockCount and EdgeCount maps the queries read.
type EdgeProfile struct {
	interp.BaseObserver
	BlockCount map[*ir.Block]int64
	EdgeCount  map[EdgeKey]int64
	mod        *ir.Module

	ix     *denseIndex
	blocks []int64 // block slot → executions
	// succs counts, per block slot, the traversals of the edges to its
	// first and second successor — the only two a Br or CondBr takes.
	succs [][2]int64
}

// NewEdgeProfile creates an empty edge profiler for module m.
func NewEdgeProfile(m *ir.Module) *EdgeProfile {
	return &EdgeProfile{
		BlockCount: map[*ir.Block]int64{},
		EdgeCount:  map[EdgeKey]int64{},
		mod:        m,
	}
}

func (p *EdgeProfile) use(ix *denseIndex) {
	p.ix = ix
	p.blocks = make([]int64, ix.nBlocks)
	p.succs = make([][2]int64, ix.nBlocks)
}

func (p *EdgeProfile) index() *denseIndex {
	if p.ix == nil {
		p.use(newDenseIndex(p.mod, nil))
	}
	return p.ix
}

func (p *EdgeProfile) Edge(fn *ir.Func, from, to *ir.Block) {
	fi := p.index().fn(fn)
	p.blocks[fi.blockBase+to.Index]++
	succ := 0
	if from.Succs[0] != to {
		succ = 1
	}
	p.succs[fi.blockBase+from.Index][succ]++
}

func (p *EdgeProfile) Call(site *ir.Instr, callee *ir.Func) {
	p.blocks[p.index().block(callee.Entry())]++
}

// Finish materializes the count maps, accounting for main's entry block,
// which no edge or call reaches. Collect calls it once the run ends.
func (p *EdgeProfile) Finish() {
	ix := p.index()
	p.BlockCount = map[*ir.Block]int64{}
	p.EdgeCount = map[EdgeKey]int64{}
	for _, f := range p.mod.Funcs {
		base := ix.fns[f].blockBase
		for _, b := range f.Blocks {
			if n := p.blocks[base+b.Index]; n > 0 {
				p.BlockCount[b] = n
			}
			for i, n := range p.succs[base+b.Index] {
				if n > 0 {
					p.EdgeCount[EdgeKey{b, b.Succs[i]}] += n
				}
			}
		}
	}
	if main := p.mod.FuncNamed("main"); main != nil {
		p.BlockCount[main.Entry()]++
	}
}

// Executed reports whether block b ran at least once during profiling.
func (p *EdgeProfile) Executed(b *ir.Block) bool { return p.BlockCount[b] > 0 }

// EdgeTaken reports whether the edge from→to was ever traversed.
func (p *EdgeProfile) EdgeTaken(from, to *ir.Block) bool {
	return p.EdgeCount[EdgeKey{from, to}] > 0
}

// SpecDead reports whether b is speculatively dead: never executed during
// profiling although its function ran. Functions that never ran at all
// provide no evidence, so their blocks are not considered spec-dead.
func (p *EdgeProfile) SpecDead(b *ir.Block) bool {
	return p.BlockCount[b] == 0 && p.BlockCount[b.Fn.Entry()] > 0
}

// BiasedEdges returns, for function fn, the set of CFG edges that were
// never traversed although their source block executed. These are the
// edges control speculation removes; the guarding branch is the source's
// terminator.
func (p *EdgeProfile) BiasedEdges(fn *ir.Func) []EdgeKey {
	var out []EdgeKey
	for _, b := range fn.Blocks {
		if p.BlockCount[b] == 0 || len(b.Succs) < 2 {
			continue
		}
		for _, s := range b.Succs {
			if !p.EdgeTaken(b, s) {
				out = append(out, EdgeKey{b, s})
			}
		}
	}
	return out
}

// LoopStat summarizes one loop's dynamic behaviour.
type LoopStat struct {
	Loop        *cfg.Loop
	Invocations int64
	HeaderExecs int64
	// Weight is the dynamic instruction count attributed to the loop's own
	// blocks (nested loops included, callees excluded).
	Weight int64
}

// AvgIters returns the average iteration count per invocation.
func (s *LoopStat) AvgIters() float64 {
	if s.Invocations == 0 {
		return 0
	}
	// The header executes once per iteration plus once for the final exit
	// test on each invocation.
	v := float64(s.HeaderExecs)/float64(s.Invocations) - 1
	if v < 0 {
		return 0
	}
	return v
}

// LoopStats derives per-loop statistics from the counts.
func (p *EdgeProfile) LoopStats(prog *cfg.Program) map[*cfg.Loop]*LoopStat {
	out := map[*cfg.Loop]*LoopStat{}
	for _, l := range prog.AllLoops() {
		st := &LoopStat{Loop: l, HeaderExecs: p.BlockCount[l.Header]}
		for _, pred := range l.Header.Preds {
			if !l.Contains(pred) {
				st.Invocations += p.EdgeCount[EdgeKey{pred, l.Header}]
			}
		}
		for b := range l.Blocks {
			st.Weight += p.BlockCount[b] * int64(len(b.Instrs))
		}
		out[l] = st
	}
	return out
}
