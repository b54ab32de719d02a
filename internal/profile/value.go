package profile

import (
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// ValueProfile detects predictable loads: loads that returned the same
// value on every dynamic execution during profiling (paper §4.2.2, the
// value-prediction profiler of Gabbay & Mendelson). It keeps one dense
// record per instruction slot.
type ValueProfile struct {
	interp.BaseObserver
	ix    *denseIndex
	stats []valueStat
}

type valueStat struct {
	count     int64
	value     uint64
	invariant bool
}

// NewValueProfile creates an empty value profiler.
func NewValueProfile() *ValueProfile { return &ValueProfile{} }

func (p *ValueProfile) use(ix *denseIndex) {
	p.ix = ix
	p.stats = make([]valueStat, len(ix.instrs))
}

func (p *ValueProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	if p.ix == nil {
		p.use(newDenseIndex(in.Blk.Fn.Mod, nil))
	}
	s := &p.stats[p.ix.instr(in)]
	if s.count == 0 {
		*s = valueStat{count: 1, value: val, invariant: true}
		return
	}
	s.count++
	if s.value != val {
		s.invariant = false
	}
}

func (p *ValueProfile) stat(in *ir.Instr) valueStat {
	if p.ix == nil {
		return valueStat{}
	}
	slot, ok := p.ix.lookup(in)
	if !ok {
		return valueStat{}
	}
	return p.stats[slot]
}

// Predictable reports whether load in returned one single value during
// profiling, and that value. Loads never executed are not predictable.
func (p *ValueProfile) Predictable(in *ir.Instr) (uint64, bool) {
	s := p.stat(in)
	if s.count == 0 || !s.invariant {
		return 0, false
	}
	return s.value, true
}

// ExecCount returns how many times load in executed during profiling.
func (p *ValueProfile) ExecCount(in *ir.Instr) int64 { return p.stat(in).count }
