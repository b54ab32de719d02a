// Package profile implements the offline profilers that feed SCAF's
// speculation modules (paper §4.2.2): an edge profiler, a value-prediction
// profiler, a points-to profiler, an object-lifetime profiler, a
// pointer-residue profiler, and the loop-aware memory-dependence profiler
// used by the memory-speculation baseline. All of them observe executions
// of the interpreter.
package profile

import (
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// LoopEntry is one activation of a loop on the tracker's stack.
type LoopEntry struct {
	Loop *cfg.Loop
	// Act is a globally unique activation (invocation) id.
	Act uint64
	// Iter counts iterations within this activation, starting at 0.
	Iter int64

	id int32 // dense loop number
	// live lists the objects allocated in the current iteration, for the
	// lifetime profiler; freed ones are skipped when the iteration ends.
	live []*interp.Object
	// snap is the memory-dependence profiler's snapshot of iteration
	// snapIter of this activation, shared by every access in it.
	snap     *snapshot
	snapIter int64
}

// frame mirrors one interpreter call frame.
type frame struct {
	fn *ir.Func
	fi *fnIndex
	// site is the call instruction in this frame currently executing a
	// callee (set just before the Call event pushes the next frame).
	site *ir.Instr
	// loopBase is the index in Tracker.loops of this frame's outermost
	// active loop entry.
	loopBase int
	ctx      int32 // interned innermost call sites, see callCtx
	// base is the memory-dependence snapshot of the loops of every frame
	// below this one, computed on first use.
	base *snapshot
}

// callCtx is an interned call-site context: the innermost ≤maxCtxSuffix
// call sites on the stack, outermost first, with the CtxSuffixHash of each
// suffix (hash[k-1] covers the innermost k sites).
type callCtx struct {
	sites [maxCtxSuffix]*ir.Instr
	n     int
	hash  [maxCtxSuffix]uint64
}

// IterListener is notified at loop-iteration boundaries. The tracker
// recycles the entries of ended activations, so a listener must not keep
// e past LoopExit.
type IterListener interface {
	// IterEnd fires when an iteration of e completes (including the last
	// one, just before the loop exits or its frame unwinds).
	IterEnd(e *LoopEntry)
	// LoopExit fires when the activation e ends.
	LoopExit(e *LoopEntry)
}

// Tracker maintains the dynamic loop-nest/call-stack state all the
// loop-sensitive profilers share: one flat vector of the active loop
// entries of every frame, kept current at Edge, Call and Return, and the
// interned innermost call sites, kept current at Call and Return. It must
// be registered BEFORE any profiler that reads it, so its state is current
// when they observe the same event.
type Tracker struct {
	interp.BaseObserver
	ix      *denseIndex
	frames  []frame
	loops   []*LoopEntry
	free    []*LoopEntry // entries of ended activations, for reuse
	nextAct uint64
	iterLis []IterListener

	ctxs  []callCtx
	ctxOf map[[maxCtxSuffix]*ir.Instr]int32
}

// NewTracker creates a tracker over prog, numbering its instructions,
// blocks, sites and loops. Run registers the initial main frame via Begin.
func NewTracker(prog *cfg.Program) *Tracker {
	return &Tracker{
		ix:    newDenseIndex(prog.Mod, prog),
		ctxs:  []callCtx{{}},
		ctxOf: map[[maxCtxSuffix]*ir.Instr]int32{{}: 0},
	}
}

// AddIterListener subscribes l to iteration boundaries.
func (t *Tracker) AddIterListener(l IterListener) { t.iterLis = append(t.iterLis, l) }

// Begin resets the tracker to a single main frame.
func (t *Tracker) Begin(main *ir.Func) {
	t.frames = append(t.frames[:0], frame{fn: main, fi: t.ix.fns[main]})
	t.loops = t.loops[:0]
}

// Active returns the active loop entries of every frame, outermost frame
// and outermost loop first.
func (t *Tracker) Active() []*LoopEntry { return t.loops }

// CallSites returns the innermost ≤3 call sites leading to the current
// frame, outermost first (empty in main).
func (t *Tracker) CallSites() []*ir.Instr {
	c := &t.ctxs[t.ctx()]
	return c.sites[:c.n]
}

// ctx returns the interned call-site context of the current frame.
func (t *Tracker) ctx() int32 {
	if len(t.frames) == 0 {
		return 0
	}
	return t.frames[len(t.frames)-1].ctx
}

// pushCtx interns the context parent extended by site.
func (t *Tracker) pushCtx(parent int32, site *ir.Instr) int32 {
	p := &t.ctxs[parent]
	var key [maxCtxSuffix]*ir.Instr
	n := copy(key[:], p.sites[max(p.n+1-maxCtxSuffix, 0):p.n])
	key[n] = site
	n++
	if id, ok := t.ctxOf[key]; ok {
		return id
	}
	c := callCtx{sites: key, n: n}
	for k := 1; k <= n; k++ {
		c.hash[k-1] = CtxSuffixHash(key[n-k : n])
	}
	id := int32(len(t.ctxs))
	t.ctxs = append(t.ctxs, c)
	t.ctxOf[key] = id
	return id
}

func (t *Tracker) Call(site *ir.Instr, callee *ir.Func) {
	var ctx int32
	if n := len(t.frames); n > 0 {
		t.frames[n-1].site = site
		ctx = t.pushCtx(t.frames[n-1].ctx, site)
	}
	t.frames = append(t.frames, frame{fn: callee, fi: t.ix.fns[callee], loopBase: len(t.loops), ctx: ctx})
}

func (t *Tracker) Return(callee *ir.Func) {
	if n := len(t.frames); n > 0 {
		// Defensively close any loop activations that survived to return.
		base := t.frames[n-1].loopBase
		for len(t.loops) > base {
			t.pop()
		}
		t.frames = t.frames[:n-1]
	}
	if n := len(t.frames); n > 0 {
		t.frames[n-1].site = nil
	}
}

func (t *Tracker) endIter(e *LoopEntry) {
	for _, l := range t.iterLis {
		l.IterEnd(e)
	}
}

// pop ends the innermost active loop entry's last iteration and its
// activation, and recycles the entry.
func (t *Tracker) pop() {
	e := t.loops[len(t.loops)-1]
	t.endIter(e)
	for _, l := range t.iterLis {
		l.LoopExit(e)
	}
	t.loops = t.loops[:len(t.loops)-1]
	t.free = append(t.free, e)
}

// push starts a new activation of loop number id.
func (t *Tracker) push(id int32) {
	t.nextAct++
	var e *LoopEntry
	if n := len(t.free); n > 0 {
		e = t.free[n-1]
		t.free = t.free[:n-1]
		*e = LoopEntry{live: e.live[:0]}
	} else {
		e = &LoopEntry{}
	}
	e.Loop, e.Act, e.id = t.ix.loops[id], t.nextAct, id
	t.loops = append(t.loops, e)
}

func (t *Tracker) Edge(fn *ir.Func, from, to *ir.Block) {
	n := len(t.frames)
	if n == 0 || t.frames[n-1].fn != fn {
		return
	}
	top := &t.frames[n-1]
	// Pop loops the edge leaves.
	for len(t.loops) > top.loopBase && !t.ix.inLoop(t.loops[len(t.loops)-1].id, to) {
		t.pop()
	}
	// Header entry: back edge advances the iteration, outside entry starts
	// a new activation.
	if id := top.fi.header[to.Index]; id >= 0 {
		if len(t.loops) > top.loopBase && t.loops[len(t.loops)-1].id == id {
			e := t.loops[len(t.loops)-1]
			t.endIter(e)
			e.Iter++
			e.live = e.live[:0]
		} else {
			t.push(id)
		}
	}
}
