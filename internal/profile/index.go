package profile

import (
	"fmt"

	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// denseIndex numbers a module's instructions, blocks and allocation sites,
// and a program's loops, so the profilers keep their per-access state in
// slices instead of maps. Instruction in of function f has slot
// fns[f].instrBase + in.ID; block b has slot fns[f].blockBase + b.Index.
// Site 0 is the unknown site (an object with neither an allocating
// instruction nor a global).
//
// The numbering is fixed when the index is built. The object-site cache
// and the one-function lookup cache are written while a run observes, so
// an index serves one run at a time; after the run, lookup and the
// query-side maps are read-only.
type denseIndex struct {
	fns     map[*ir.Func]*fnIndex
	instrs  []*ir.Instr // slot → instruction; nil for unused IDs
	nBlocks int

	sites  []Site         // site number → site
	siteOf map[Site]int32 // site → number

	loops      []*cfg.Loop
	loopOf     map[*cfg.Loop]int32
	loopBlocks [][]uint64 // loop number → bitset of its blocks by Block.Index

	objSite []int32 // object ID → site number + 1; 0 when not yet seen
	lastFn  *ir.Func
	last    *fnIndex
}

// fnIndex is one function's share of the numbering.
type fnIndex struct {
	instrBase, nIDs, blockBase int
	// header[b.Index] is the number of the loop headed by block b, or -1.
	header []int32
}

// newDenseIndex numbers mod; prog, when non-nil, adds its loops.
func newDenseIndex(mod *ir.Module, prog *cfg.Program) *denseIndex {
	x := &denseIndex{
		fns:    map[*ir.Func]*fnIndex{},
		sites:  []Site{{}},
		siteOf: map[Site]int32{{}: 0},
		loopOf: map[*cfg.Loop]int32{},
	}
	for _, g := range mod.Globals {
		x.addSite(Site{G: g})
	}
	for _, f := range mod.Funcs {
		fi := &fnIndex{instrBase: len(x.instrs), nIDs: f.NumIDs(), blockBase: x.nBlocks}
		x.fns[f] = fi
		x.instrs = append(x.instrs, make([]*ir.Instr, fi.nIDs)...)
		x.nBlocks += len(f.Blocks)
		f.Instrs(func(in *ir.Instr) {
			x.instrs[fi.instrBase+in.ID] = in
			if in.IsAllocation() {
				x.addSite(Site{In: in})
			}
		})
		fi.header = make([]int32, len(f.Blocks))
		for i := range fi.header {
			fi.header[i] = -1
		}
		if prog == nil {
			continue
		}
		for _, l := range prog.Forests[f].All {
			id := int32(len(x.loops))
			x.loops = append(x.loops, l)
			x.loopOf[l] = id
			bits := make([]uint64, (len(f.Blocks)+63)/64)
			for b := range l.Blocks {
				bits[b.Index>>6] |= 1 << (b.Index & 63)
			}
			x.loopBlocks = append(x.loopBlocks, bits)
			fi.header[l.Header.Index] = id
		}
	}
	return x
}

func (x *denseIndex) addSite(s Site) {
	x.siteOf[s] = int32(len(x.sites))
	x.sites = append(x.sites, s)
}

// fn returns f's numbering during a run, caching the last function asked
// for: consecutive events almost always come from the same function.
func (x *denseIndex) fn(f *ir.Func) *fnIndex {
	if f != x.lastFn {
		fi := x.fns[f]
		if fi == nil {
			panic(fmt.Sprintf("profile: function %s is not in the profiled module", f.Name))
		}
		x.lastFn, x.last = f, fi
	}
	return x.last
}

// instr returns the slot of an instruction executing in this run.
func (x *denseIndex) instr(in *ir.Instr) int { return x.fn(in.Blk.Fn).instrBase + in.ID }

// block returns the slot of a block executing in this run.
func (x *denseIndex) block(b *ir.Block) int { return x.fn(b.Fn).blockBase + b.Index }

// lookup returns the slot of any instruction without touching the run
// caches, so concurrent queries may call it.
func (x *denseIndex) lookup(in *ir.Instr) (int, bool) {
	fi := x.fns[in.Blk.Fn]
	if fi == nil || in.ID >= fi.nIDs {
		return 0, false
	}
	return fi.instrBase + in.ID, true
}

// site returns the site number of an object, cached per object ID.
func (x *denseIndex) site(o *interp.Object) int32 {
	if o.ID < len(x.objSite) {
		if s := x.objSite[o.ID]; s != 0 {
			return s - 1
		}
	} else {
		x.objSite = append(x.objSite, make([]int32, o.ID+1-len(x.objSite))...)
	}
	s, ok := x.siteOf[SiteOf(o)]
	if !ok {
		panic(fmt.Sprintf("profile: object %d of %s is not from the profiled module", o.ID, o.SiteName()))
	}
	x.objSite[o.ID] = s + 1
	return s
}

// inLoop reports whether block b (of the loop's function) belongs to loop
// number id.
func (x *denseIndex) inLoop(id int32, b *ir.Block) bool {
	return x.loopBlocks[id][b.Index>>6]&(1<<(b.Index&63)) != 0
}
