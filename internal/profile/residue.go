package profile

import (
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// ResidueProfile records, for every pointer SSA value, the set of values
// its four least-significant bits took during profiling (paper §4.2.3,
// pointer-residue speculation after Johnson).
//
// While the program runs it keeps one dense record per accessing
// instruction; Finish merges the records of instructions that share a
// pointer operand into the per-value masks the queries read.
type ResidueProfile struct {
	interp.BaseObserver
	ix  *denseIndex
	acc []residueAccess

	masks  map[ir.Value]uint16
	counts map[ir.Value]int64
}

type residueAccess struct {
	mask  uint16
	count int64
}

// NewResidueProfile creates an empty residue profiler.
func NewResidueProfile() *ResidueProfile { return &ResidueProfile{} }

func (p *ResidueProfile) use(ix *denseIndex) {
	p.ix = ix
	p.acc = make([]residueAccess, len(ix.instrs))
}

func (p *ResidueProfile) record(in *ir.Instr, addr uint64) {
	if p.ix == nil {
		p.use(newDenseIndex(in.Blk.Fn.Mod, nil))
	}
	a := &p.acc[p.ix.instr(in)]
	a.mask |= 1 << (addr & 15)
	a.count++
}

func (p *ResidueProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	p.record(in, addr)
}

func (p *ResidueProfile) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	p.record(in, addr)
}

// Finish merges the per-instruction records into the per-value masks the
// queries read. Collect calls it once the run ends.
func (p *ResidueProfile) Finish() {
	p.masks = map[ir.Value]uint16{}
	p.counts = map[ir.Value]int64{}
	for slot, a := range p.acc {
		if a.count == 0 {
			continue
		}
		ptr, _, _ := p.ix.instrs[slot].PointerOperand()
		p.masks[ptr] |= a.mask
		p.counts[ptr] += a.count
	}
}

// Mask returns the residue bitmask of pointer v (bit i set iff residue i
// was observed) and whether v was observed at all.
func (p *ResidueProfile) Mask(v ir.Value) (uint16, bool) {
	m, ok := p.masks[v]
	return m, ok
}

// ExecCount returns how many accesses were observed through v.
func (p *ResidueProfile) ExecCount(v ir.Value) int64 { return p.counts[v] }

// expand widens a residue mask by an access of size bytes: an access at
// residue r touches residues r..r+size-1 (mod 16).
func expand(mask uint16, size int64) uint16 {
	if size >= 16 {
		return 0xffff
	}
	var out uint16
	for r := 0; r < 16; r++ {
		if mask&(1<<r) == 0 {
			continue
		}
		for i := int64(0); i < size; i++ {
			out |= 1 << ((r + int(i)) & 15)
		}
	}
	return out
}

// DisjointAccesses reports whether accesses of the given sizes through the
// two pointers can never overlap according to their observed residues.
func (p *ResidueProfile) DisjointAccesses(a ir.Value, sizeA int64, b ir.Value, sizeB int64) bool {
	ma, oka := p.Mask(a)
	mb, okb := p.Mask(b)
	if !oka || !okb {
		return false
	}
	return expand(ma, sizeA)&expand(mb, sizeB) == 0
}
