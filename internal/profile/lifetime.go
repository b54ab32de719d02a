package profile

import (
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// LifetimeProfile implements the object-lifetime profiler (paper §4.2.2):
// per target loop it discovers
//
//   - read-only sites: allocation sites whose objects are accessed but
//     never written while the loop is active (including in callees), and
//   - short-lived sites: sites whose every object is allocated and freed
//     within a single iteration of the loop.
//
// Each property is a bitset with one row of loop bits per site number.
type LifetimeProfile struct {
	interp.BaseObserver
	tracker *Tracker
	words   int // uint64 words per site row

	roAccessed, roWritten   []uint64
	slAllocated, slViolated []uint64
}

// NewLifetimeProfile creates a lifetime profiler reading loop state from
// tracker. It registers itself for iteration boundaries.
func NewLifetimeProfile(tracker *Tracker) *LifetimeProfile {
	words := (len(tracker.ix.loops) + 63) / 64
	n := words * len(tracker.ix.sites)
	p := &LifetimeProfile{
		tracker:     tracker,
		words:       words,
		roAccessed:  make([]uint64, n),
		roWritten:   make([]uint64, n),
		slAllocated: make([]uint64, n),
		slViolated:  make([]uint64, n),
	}
	tracker.AddIterListener(p)
	return p
}

// mark sets bit (e's loop, site) of set.
func (p *LifetimeProfile) mark(set []uint64, e *LoopEntry, site int32) {
	set[int(site)*p.words+int(e.id>>6)] |= 1 << (e.id & 63)
}

// has reports bit (loop, site) of set.
func (p *LifetimeProfile) has(set []uint64, loop, site int32) bool {
	return set[int(site)*p.words+int(loop>>6)]&(1<<(loop&63)) != 0
}

func (p *LifetimeProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	site := p.tracker.ix.site(o)
	for _, e := range p.tracker.loops {
		p.mark(p.roAccessed, e, site)
	}
}

func (p *LifetimeProfile) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	site := p.tracker.ix.site(o)
	for _, e := range p.tracker.loops {
		p.mark(p.roAccessed, e, site)
		p.mark(p.roWritten, e, site)
	}
}

func (p *LifetimeProfile) Alloc(o *interp.Object) {
	if len(p.tracker.loops) == 0 {
		return
	}
	site := p.tracker.ix.site(o)
	for _, e := range p.tracker.loops {
		p.mark(p.slAllocated, e, site)
		e.live = append(e.live, o)
	}
}

// IterEnd marks every object that survived the ending iteration as a
// short-lived violation for its site. The interpreter sets Freed before
// it reports a Free, so Freed is exactly "Free was observed".
func (p *LifetimeProfile) IterEnd(e *LoopEntry) {
	for _, o := range e.live {
		if !o.Freed {
			p.mark(p.slViolated, e, p.tracker.ix.site(o))
		}
	}
}

// LoopExit is part of IterListener; iteration cleanup already happened.
func (p *LifetimeProfile) LoopExit(e *LoopEntry) {}

// ids returns the dense numbers of loop and site, if both are known.
func (p *LifetimeProfile) ids(loop *cfg.Loop, site Site) (int32, int32, bool) {
	l, okL := p.tracker.ix.loopOf[loop]
	s, okS := p.tracker.ix.siteOf[site]
	return l, s, okL && okS
}

// sitesWhere lists, in site-number order, the sites s with yes(loop, s)
// set and no(loop, s) clear.
func (p *LifetimeProfile) sitesWhere(loop *cfg.Loop, yes, no []uint64) []Site {
	l, ok := p.tracker.ix.loopOf[loop]
	if !ok {
		return nil
	}
	var out []Site
	for s := range p.tracker.ix.sites {
		if p.has(yes, l, int32(s)) && !p.has(no, l, int32(s)) {
			out = append(out, p.tracker.ix.sites[s])
		}
	}
	return out
}

// ReadOnly reports whether objects of site were accessed but never written
// while loop was active.
func (p *LifetimeProfile) ReadOnly(loop *cfg.Loop, site Site) bool {
	l, s, ok := p.ids(loop, site)
	return ok && p.has(p.roAccessed, l, s) && !p.has(p.roWritten, l, s)
}

// ReadOnlySites lists the read-only sites of a loop.
func (p *LifetimeProfile) ReadOnlySites(loop *cfg.Loop) []Site {
	return p.sitesWhere(loop, p.roAccessed, p.roWritten)
}

// ShortLived reports whether every object of site observed under loop was
// allocated and freed within one iteration.
func (p *LifetimeProfile) ShortLived(loop *cfg.Loop, site Site) bool {
	l, s, ok := p.ids(loop, site)
	return ok && p.has(p.slAllocated, l, s) && !p.has(p.slViolated, l, s)
}

// ShortLivedSites lists the short-lived sites of a loop.
func (p *LifetimeProfile) ShortLivedSites(loop *cfg.Loop) []Site {
	return p.sitesWhere(loop, p.slAllocated, p.slViolated)
}
