package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"scaf/internal/ir"
)

// Digest returns a canonical, pointer-free SHA-256 digest of every
// profile in d, the memory-dependence profile included. It is computed
// through the query-side accessors only, so two profiler implementations
// that answer every query alike digest alike. Instructions are named by
// (function name, ID), sites by String() and loops by Name(); every
// section is sorted, so map iteration order never leaks in.
func Digest(d *Data) string {
	h := sha256.New()
	writeCanonical(h, d)
	return hex.EncodeToString(h.Sum(nil))
}

// writeCanonical writes the canonical encoding Digest hashes, one sorted
// section per profile.
func writeCanonical(w io.Writer, d *Data) {
	mod := d.Prog.Mod
	section := func(name string, lines []string) {
		sort.Strings(lines)
		fmt.Fprintf(w, "[%s %d]\n", name, len(lines))
		for _, l := range lines {
			io.WriteString(w, l)
			io.WriteString(w, "\n")
		}
	}

	fmt.Fprintf(w, "steps %d\n", d.Steps)
	section("output", append([]string(nil), d.Output...))

	// Edge profile and the loop statistics derived from it.
	var lines []string
	for b, n := range d.Edge.BlockCount {
		lines = append(lines, fmt.Sprintf("%s %d", blockName(b), n))
	}
	section("blocks", lines)
	lines = nil
	for k, n := range d.Edge.EdgeCount {
		lines = append(lines, fmt.Sprintf("%s>%s %d", blockName(k.From), blockName(k.To), n))
	}
	section("edges", lines)
	lines = nil
	for l, st := range d.LoopStats {
		lines = append(lines, fmt.Sprintf("%s inv=%d hdr=%d w=%d", l.Name(), st.Invocations, st.HeaderExecs, st.Weight))
	}
	section("loops", lines)

	// Per-access profiles, enumerated over the module's memory accesses.
	var loads []*ir.Instr
	ptrs := map[ir.Value]bool{}
	contexts := callContexts(mod)
	ctxLines := map[string]bool{}
	for _, f := range mod.Funcs {
		f.Instrs(func(in *ir.Instr) {
			ptr, _, ok := in.PointerOperand()
			if !ok {
				return
			}
			ptrs[ptr] = true
			if in.Op == ir.OpLoad {
				loads = append(loads, in)
			}
			for _, chain := range contexts[f] {
				if s := d.PointsTo.SitesOfCtx(ptr, chain); len(s) > 0 {
					ctxLines[fmt.Sprintf("%s ctx=%s {%s}", valueName(ptr), chainName(chain), siteSet(s))] = true
				}
			}
		})
	}
	lines = nil
	for _, in := range loads {
		if n := d.Value.ExecCount(in); n > 0 {
			v, ok := d.Value.Predictable(in)
			lines = append(lines, fmt.Sprintf("%s n=%d pred=%v v=%d", instrName(in), n, ok, v))
		}
	}
	section("value", lines)

	var pts, ctxs, res []string
	for l := range ctxLines {
		ctxs = append(ctxs, l)
	}
	for ptr := range ptrs {
		name := valueName(ptr)
		if s := d.PointsTo.SitesOf(ptr); s != nil || d.PointsTo.ExecCount(ptr) > 0 {
			pts = append(pts, fmt.Sprintf("%s n=%d {%s}", name, d.PointsTo.ExecCount(ptr), siteSet(s)))
		}
		if m, ok := d.Residue.Mask(ptr); ok || d.Residue.ExecCount(ptr) > 0 {
			res = append(res, fmt.Sprintf("%s n=%d mask=%#x ok=%v", name, d.Residue.ExecCount(ptr), m, ok))
		}
	}
	section("pointsto", pts)
	section("pointsto-ctx", ctxs)
	section("residue", res)

	lines = nil
	for _, l := range d.Prog.AllLoops() {
		for _, s := range d.Lifetime.ReadOnlySites(l) {
			lines = append(lines, fmt.Sprintf("ro %s %s", l.Name(), s))
		}
		for _, s := range d.Lifetime.ShortLivedSites(l) {
			lines = append(lines, fmt.Sprintf("sl %s %s", l.Name(), s))
		}
	}
	section("lifetime", lines)

	lines = nil
	for k, n := range d.MemDep().Deps() {
		lines = append(lines, fmt.Sprintf("%s %s>%s %s cross=%v %d",
			k.Loop.Name(), instrName(k.Src), instrName(k.Dst), k.Kind, k.Cross, n))
	}
	section("memdep", lines)
}

// instrName names an instruction by (function, ID); the zero padding
// makes the lexicographic order of the sorted sections the numeric one.
func instrName(in *ir.Instr) string { return fmt.Sprintf("%s/%08d", in.Blk.Fn.Name, in.ID) }

func blockName(b *ir.Block) string { return fmt.Sprintf("%s/b%06d", b.Fn.Name, b.Index) }

func valueName(v ir.Value) string {
	switch v := v.(type) {
	case *ir.Instr:
		return instrName(v)
	case *ir.Param:
		return fmt.Sprintf("%s/p%d", v.Fn.Name, v.Idx)
	case *ir.Global:
		return "@" + v.GName
	}
	return fmt.Sprintf("%T:%v", v, v)
}

func siteSet(s map[Site]bool) string {
	var names []string
	for site, ok := range s {
		if ok {
			names = append(names, site.String())
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func chainName(chain []*ir.Instr) string {
	var parts []string
	for _, c := range chain {
		parts = append(parts, instrName(c))
	}
	return strings.Join(parts, ",")
}

// callContexts enumerates, per function, every static call-site chain
// (innermost last) of length 1..maxCtxSuffix that can reach it: a superset
// of the dynamic contexts the points-to profiler can have recorded.
func callContexts(mod *ir.Module) map[*ir.Func][][]*ir.Instr {
	callers := map[*ir.Func][]*ir.Instr{}
	for _, f := range mod.Funcs {
		f.Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpCall && in.Callee != nil {
				callers[in.Callee] = append(callers[in.Callee], in)
			}
		})
	}
	out := map[*ir.Func][][]*ir.Instr{}
	var extend func(target *ir.Func, suffix []*ir.Instr)
	extend = func(target *ir.Func, suffix []*ir.Instr) {
		if len(suffix) == maxCtxSuffix {
			return
		}
		head := target
		if len(suffix) > 0 {
			head = suffix[0].Blk.Fn
		}
		for _, c := range callers[head] {
			chain := append([]*ir.Instr{c}, suffix...)
			out[target] = append(out[target], chain)
			extend(target, chain)
		}
	}
	for _, f := range mod.Funcs {
		extend(f, nil)
	}
	return out
}
