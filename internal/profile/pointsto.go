package profile

import (
	"fmt"

	"scaf/internal/interp"
	"scaf/internal/ir"
)

// maxCtxSuffix bounds context depth: accesses are attributed to every
// call-site-chain suffix up to this length, so queries can supply partial
// contexts (paper §3.2.2's calling-context parameter).
const maxCtxSuffix = 3

// CtxSuffixHash hashes a call-site chain suffix (innermost last): FNV-64a
// over each site's ID (8 bytes, little-endian) followed by its function's
// name.
func CtxSuffixHash(sites []*ir.Instr) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range sites {
		id := uint64(s.ID)
		for i := 0; i < 8; i++ {
			h ^= (id >> (8 * uint(i))) & 0xff
			h *= prime
		}
		name := s.Blk.Fn.Name
		for i := 0; i < len(name); i++ {
			h ^= uint64(name[i])
			h *= prime
		}
	}
	return h
}

// Site identifies an allocation site: a Malloc/Alloca instruction or a
// global variable. Exactly one field is non-nil.
type Site struct {
	In *ir.Instr
	G  *ir.Global
}

// SiteOf returns the allocation site of an interpreter object.
func SiteOf(o *interp.Object) Site {
	if o.G != nil {
		return Site{G: o.G}
	}
	return Site{In: o.Site}
}

func (s Site) String() string {
	if s.G != nil {
		return "@" + s.G.GName
	}
	if s.In != nil {
		return fmt.Sprintf("%s:%s", s.In.Blk.Fn.Name, s.In)
	}
	return "?"
}

// Size returns the static size of objects allocated at the site, or -1
// when the size is dynamic (malloc with a non-constant byte count).
func (s Site) Size() int64 {
	if s.G != nil {
		return s.G.Elem.Size()
	}
	if s.In != nil {
		switch s.In.Op {
		case ir.OpAlloca:
			return s.In.ElemTy.Size()
		case ir.OpMalloc:
			if n, ok := ir.ConstIntValue(s.In.Args[0]); ok {
				return n
			}
		}
	}
	return -1
}

// PointsToProfile maps pointer SSA values to the allocation sites of the
// objects they were observed addressing (paper §4.2.2, the pointer-to-
// object profiler of speculative separation).
//
// While the program runs it keeps one dense record per accessing
// instruction; Finish merges the records of instructions that share a
// pointer operand into the per-value sets the queries read.
type PointsToProfile struct {
	interp.BaseObserver
	ix  *denseIndex
	acc []ptAccess
	// ctxAcc refines acc per interned call-site context; tracker supplies
	// the context.
	ctxAcc  map[ptCtxKey][]int32
	tracker *Tracker

	sets   map[ir.Value]map[Site]bool
	counts map[ir.Value]int64
	// ctxSets refines sets per call-site-chain suffix hash, enabling the
	// calling-context query parameter.
	ctxSets map[ctxKey]map[Site]bool
}

// ptAccess is what one accessing instruction observed.
type ptAccess struct {
	count int64
	sites []int32 // distinct site numbers
	// last and lastCtx/lastCtxSite (site numbers + 1) short-cut the
	// common case of repeating the previous access's site and context.
	last, lastCtx, lastCtxSite int32
}

type ptCtxKey struct{ slot, ctx int32 }

type ctxKey struct {
	v   ir.Value
	ctx uint64
}

// NewPointsToProfile creates an empty points-to profiler. A nil tracker
// disables context sensitivity.
func NewPointsToProfile(tracker *Tracker) *PointsToProfile {
	p := &PointsToProfile{tracker: tracker, ctxAcc: map[ptCtxKey][]int32{}}
	if tracker != nil {
		p.use(tracker.ix)
	}
	return p
}

func (p *PointsToProfile) use(ix *denseIndex) {
	p.ix = ix
	p.acc = make([]ptAccess, len(ix.instrs))
}

func addSite(set []int32, s int32) []int32 {
	for _, x := range set {
		if x == s {
			return set
		}
	}
	return append(set, s)
}

func (p *PointsToProfile) record(in *ir.Instr, o *interp.Object) {
	if p.ix == nil {
		p.use(newDenseIndex(in.Blk.Fn.Mod, nil))
	}
	slot := p.ix.instr(in)
	site := p.ix.site(o)
	a := &p.acc[slot]
	a.count++
	if a.last != site+1 {
		a.last = site + 1
		a.sites = addSite(a.sites, site)
	}
	if p.tracker == nil {
		return
	}
	if ctx := p.tracker.ctx(); ctx != 0 && (a.lastCtx != ctx || a.lastCtxSite != site+1) {
		a.lastCtx, a.lastCtxSite = ctx, site+1
		k := ptCtxKey{slot: int32(slot), ctx: ctx}
		p.ctxAcc[k] = addSite(p.ctxAcc[k], site)
	}
}

// Finish merges the per-instruction records into the per-value sets the
// queries read. Collect calls it once the run ends.
func (p *PointsToProfile) Finish() {
	p.sets = map[ir.Value]map[Site]bool{}
	p.counts = map[ir.Value]int64{}
	p.ctxSets = map[ctxKey]map[Site]bool{}
	into := func(set map[Site]bool, sites []int32) {
		for _, s := range sites {
			set[p.ix.sites[s]] = true
		}
	}
	for slot := range p.acc {
		a := &p.acc[slot]
		if a.count == 0 {
			continue
		}
		ptr, _, _ := p.ix.instrs[slot].PointerOperand()
		set := p.sets[ptr]
		if set == nil {
			set = map[Site]bool{}
			p.sets[ptr] = set
		}
		into(set, a.sites)
		p.counts[ptr] += a.count
	}
	for k, sites := range p.ctxAcc {
		ptr, _, _ := p.ix.instrs[k.slot].PointerOperand()
		c := &p.tracker.ctxs[k.ctx]
		for i := 0; i < c.n; i++ {
			key := ctxKey{v: ptr, ctx: c.hash[i]}
			set := p.ctxSets[key]
			if set == nil {
				set = map[Site]bool{}
				p.ctxSets[key] = set
			}
			into(set, sites)
		}
	}
}

// SitesOfCtx returns the points-to set of v observed under the given
// call-site-chain suffix (innermost last), or nil if never observed there.
func (p *PointsToProfile) SitesOfCtx(v ir.Value, sites []*ir.Instr) map[Site]bool {
	if len(sites) == 0 {
		return p.sets[v]
	}
	if len(sites) > maxCtxSuffix {
		sites = sites[len(sites)-maxCtxSuffix:]
	}
	return p.ctxSets[ctxKey{v: v, ctx: CtxSuffixHash(sites)}]
}

func (p *PointsToProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	p.record(in, o)
}

func (p *PointsToProfile) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	p.record(in, o)
}

// SitesOf returns the observed points-to set of pointer value v, or nil
// if v was never observed addressing memory.
func (p *PointsToProfile) SitesOf(v ir.Value) map[Site]bool { return p.sets[v] }

// Observed reports whether pointer v was exercised during profiling.
func (p *PointsToProfile) Observed(v ir.Value) bool { return len(p.sets[v]) > 0 }

// ExecCount returns how many accesses were observed through v.
func (p *PointsToProfile) ExecCount(v ir.Value) int64 { return p.counts[v] }

// Disjoint reports whether the observed points-to sets of two pointers
// share no allocation site. Both pointers must have been observed.
func (p *PointsToProfile) Disjoint(a, b ir.Value) bool {
	sa, sb := p.sets[a], p.sets[b]
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	for s := range sa {
		if sb[s] {
			return false
		}
	}
	return true
}

// OnlySite reports the single allocation site v points to, if exactly one
// was observed.
func (p *PointsToProfile) OnlySite(v ir.Value) (Site, bool) {
	set := p.sets[v]
	if len(set) != 1 {
		return Site{}, false
	}
	for s := range set {
		return s, true
	}
	return Site{}, false
}

// PointsOnlyInto reports whether every observed target of v belongs to the
// given site set.
func (p *PointsToProfile) PointsOnlyInto(v ir.Value, sites map[Site]bool) bool {
	set := p.sets[v]
	if len(set) == 0 {
		return false
	}
	for s := range set {
		if !sites[s] {
			return false
		}
	}
	return true
}
