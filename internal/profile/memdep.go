package profile

import (
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// DepKind classifies memory dependences.
type DepKind int

const (
	Flow   DepKind = iota // store → load (true dependence)
	Anti                  // load → store
	Output                // store → store
)

func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	}
	return "output"
}

// DepKey identifies one loop-relative observed dependence. Src and Dst are
// the instructions *as seen from the loop's own function*: an access in a
// callee is represented by the call site through which the loop reached it.
type DepKey struct {
	Loop  *cfg.Loop
	Src   *ir.Instr
	Dst   *ir.Instr
	Kind  DepKind
	Cross bool // cross-iteration (Src in a strictly earlier iteration)
}

// loopTag is one active loop entry as an access sees it: rep is the
// instruction representing the access at that loop's level — the call
// site through which control left the entry's frame, or nil for the
// entries of the accessing frame itself, which the access represents.
type loopTag struct {
	act  uint64
	iter int64
	loop *cfg.Loop
	rep  *ir.Instr
}

// snapshot is the interned loop state of one iteration: every access in
// the same iteration of the same activations shares one.
type snapshot struct{ tags []loopTag }

// accessRec is one recorded access: its snapshot, plus the accessing
// instruction when the accessing frame has loops of its own (nil
// otherwise, as no tag then refers to it). Two records are equal exactly
// when their loop tags are, so comparing records compares tags.
type accessRec struct {
	s   *snapshot
	cur *ir.Instr
}

// word is the shadow state of one memory word.
type word struct {
	write accessRec // last write inside a loop; s == nil when none
	reads []accessRec
}

// maxReadRecs bounds the per-word reader list; anti dependences beyond the
// cap within one write-free window are dropped (documented approximation).
const maxReadRecs = 16

// MemDepProfile is the loop-aware memory-dependence profiler (paper
// §4.2.2, after Chen et al.): it records which loop-relative dependences
// actually manifest, at 8-byte word granularity. It powers the
// memory-speculation baseline and the "observed deps" series of Fig. 8.
//
// The shadow state is dense per object: word i of object o lives at
// shadow[o.ID][i], and accesses off the 8-byte grid fall back to a map.
type MemDepProfile struct {
	interp.BaseObserver
	tracker *Tracker
	shadow  [][]word
	odd     map[uint64]*word
	deps    map[DepKey]int64
	// conservative marks a profile whose run failed: every dependence
	// counts as observed.
	conservative bool
}

// emptySnap is the snapshot of an access outside every loop.
var emptySnap = &snapshot{}

// NewMemDepProfile creates a memory-dependence profiler reading loop state
// from tracker.
func NewMemDepProfile(tracker *Tracker) *MemDepProfile {
	return &MemDepProfile{
		tracker: tracker,
		odd:     map[uint64]*word{},
		deps:    map[DepKey]int64{},
	}
}

// base returns the snapshot of the loops of every frame below frame i,
// each represented by its frame's call site. A frame whose caller has no
// loops of its own shares the caller's snapshot, so equal tags always mean
// the same snapshot.
func (p *MemDepProfile) base(i int) *snapshot {
	t := p.tracker
	f := &t.frames[i]
	if f.base != nil {
		return f.base
	}
	if i == 0 {
		f.base = emptySnap
		return f.base
	}
	c := &t.frames[i-1]
	cb := p.base(i - 1)
	own := t.loops[c.loopBase:f.loopBase]
	if len(own) == 0 {
		f.base = cb
		return f.base
	}
	tags := make([]loopTag, len(cb.tags), len(cb.tags)+len(own))
	copy(tags, cb.tags)
	for _, e := range own {
		tags = append(tags, loopTag{act: e.Act, iter: e.Iter, loop: e.Loop, rep: c.site})
	}
	f.base = &snapshot{tags}
	return f.base
}

// snap returns the record of an access by cur in the current loop state.
func (p *MemDepProfile) snap(cur *ir.Instr) accessRec {
	t := p.tracker
	top := len(t.frames) - 1
	if top < 0 {
		return accessRec{s: emptySnap}
	}
	lb := t.frames[top].loopBase
	if len(t.loops) == lb {
		return accessRec{s: p.base(top)}
	}
	// The innermost entry's iteration fixes every entry of this frame.
	e := t.loops[len(t.loops)-1]
	if e.snap == nil || e.snapIter != e.Iter {
		b := p.base(top)
		own := t.loops[lb:]
		tags := make([]loopTag, len(b.tags), len(b.tags)+len(own))
		copy(tags, b.tags)
		for _, o := range own {
			tags = append(tags, loopTag{act: o.Act, iter: o.Iter, loop: o.Loop})
		}
		e.snap, e.snapIter = &snapshot{tags}, e.Iter
	}
	return accessRec{s: e.snap, cur: cur}
}

func (p *MemDepProfile) emit(from, to accessRec, kind DepKind) {
	for _, tf := range from.s.tags {
		for _, tt := range to.s.tags {
			if tt.act != tf.act {
				continue
			}
			src, dst := tf.rep, tt.rep
			if src == nil {
				src = from.cur
			}
			if dst == nil {
				dst = to.cur
			}
			p.deps[DepKey{Loop: tf.loop, Src: src, Dst: dst, Kind: kind, Cross: tt.iter > tf.iter}]++
		}
	}
}

// word returns the shadow of the word at addr in object o.
func (p *MemDepProfile) word(o *interp.Object, addr uint64) *word {
	off := addr - o.Base
	if off&7 != 0 {
		w := p.odd[addr]
		if w == nil {
			w = &word{}
			p.odd[addr] = w
		}
		return w
	}
	if o.ID >= len(p.shadow) {
		p.shadow = append(p.shadow, make([][]word, o.ID+1-len(p.shadow))...)
	}
	ws := p.shadow[o.ID]
	if ws == nil {
		ws = make([]word, (o.Size+7)/8)
		p.shadow[o.ID] = ws
	}
	return &ws[off>>3]
}

func (p *MemDepProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	rec := p.snap(in)
	if len(rec.s.tags) == 0 {
		return // outside any loop: no loop-relative dependence to record
	}
	w := p.word(o, addr)
	if w.write.s != nil {
		p.emit(w.write, rec, Flow)
	}
	if n := len(w.reads); n > 0 && w.reads[n-1] == rec {
		return
	}
	if len(w.reads) < maxReadRecs {
		w.reads = append(w.reads, rec)
	}
}

func (p *MemDepProfile) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	rec := p.snap(in)
	w := p.word(o, addr)
	if len(rec.s.tags) == 0 {
		// A write outside all loops still kills earlier records.
		*w = word{}
		return
	}
	for _, r := range w.reads {
		p.emit(r, rec, Anti)
	}
	if w.write.s != nil {
		p.emit(w.write, rec, Output)
	}
	w.write = rec
	w.reads = w.reads[:0]
}

// Observed reports whether any dependence src→dst (of any kind) with the
// given iteration relation manifested within loop during profiling. A
// profile whose run failed observed everything.
func (p *MemDepProfile) Observed(loop *cfg.Loop, src, dst *ir.Instr, cross bool) bool {
	if p.conservative {
		return true
	}
	for _, k := range []DepKind{Flow, Anti, Output} {
		if p.deps[DepKey{loop, src, dst, k, cross}] > 0 {
			return true
		}
	}
	return false
}

// Count returns the number of times the exact dependence manifested.
func (p *MemDepProfile) Count(k DepKey) int64 { return p.deps[k] }

// Deps exposes the raw dependence table.
func (p *MemDepProfile) Deps() map[DepKey]int64 { return p.deps }
