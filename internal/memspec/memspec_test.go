package memspec

import (
	"reflect"
	"sync"
	"testing"

	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/lower"
	"scaf/internal/profile"
)

func load(t *testing.T, src string) (*profile.Data, *cfg.Program) {
	t.Helper()
	mod, err := lower.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog := cfg.NewProgram(mod)
	data, err := profile.Collect(prog, interp.Options{})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return data, prog
}

const src = `
int buf[64];
int acc;
void main() {
    for (int i = 0; i < 200; i++) {
        buf[i % 64] = i;            // store
        acc = acc + buf[i % 64];    // loads + store acc
    }
    print(acc);
}
`

func findOps(t *testing.T, prog *cfg.Program) (loop *cfg.Loop, bufStore, bufLoad, accStore *ir.Instr) {
	t.Helper()
	main := prog.Mod.FuncNamed("main")
	loop = prog.Forests[main].All[0]
	bufG := prog.Mod.GlobalNamed("buf")
	accG := prog.Mod.GlobalNamed("acc")
	main.Instrs(func(in *ir.Instr) {
		ptr, _, ok := in.PointerOperand()
		if !ok || !loop.ContainsInstr(in) {
			return
		}
		base := core.Decompose(ptr).Base
		switch {
		case base == ir.Value(bufG) && in.Op == ir.OpStore:
			bufStore = in
		case base == ir.Value(bufG) && in.Op == ir.OpLoad:
			bufLoad = in
		case base == ir.Value(accG) && in.Op == ir.OpStore:
			accStore = in
		}
	})
	if bufStore == nil || bufLoad == nil || accStore == nil {
		t.Fatal("ops not found")
	}
	return
}

func TestMemSpecObservedVsNot(t *testing.T) {
	data, prog := load(t, src)
	ms := New(data)
	loop, bufStore, bufLoad, accStore := findOps(t, prog)

	// Intra-iteration flow buf-store -> buf-load manifests.
	if ms.NoDep(loop, bufStore, bufLoad, core.Same) {
		t.Error("manifested intra dep must not be speculated")
	}
	// Cross-iteration buf-store -> buf-load of the same slot is killed by
	// the same-iteration store, so it never manifests: speculable.
	if !ms.NoDep(loop, bufStore, bufLoad, core.Before) {
		t.Error("non-observed cross dep must be speculable")
	}
	// buf accesses never touch acc.
	if ms.NoDep(loop, accStore, accStore, core.Before) {
		t.Error("the acc recurrence's output dep manifests across iterations")
	}
}

func TestMemSpecModuleInterface(t *testing.T) {
	data, prog := load(t, src)
	ms := New(data)
	loop, bufStore, bufLoad, _ := findOps(t, prog)

	if ms.Kind() != core.Speculation || ms.Name() != Name {
		t.Error("module identity wrong")
	}
	r := ms.ModRef(&core.ModRefQuery{I1: bufStore, I2: bufLoad, Rel: core.Before, Loop: loop}, core.NoHelp{})
	if r.Result != core.NoModRef {
		t.Fatalf("module should speculate the non-observed dep: %s", r.Result)
	}
	// Expensive: cost = per-check x (executions of both endpoints).
	want := core.CostMemSpecCheck * float64(200+200)
	if got := core.MinCost(r.Options); got != want {
		t.Errorf("cost = %g, want %g", got, want)
	}
	// Observed dep: conservative.
	r = ms.ModRef(&core.ModRefQuery{I1: bufStore, I2: bufLoad, Rel: core.Same, Loop: loop}, core.NoHelp{})
	if r.Result != core.ModRef {
		t.Errorf("observed dep must stay: %s", r.Result)
	}
	// No loop context: conservative.
	r = ms.ModRef(&core.ModRefQuery{I1: bufStore, I2: bufLoad, Rel: core.Same}, core.NoHelp{})
	if r.Result != core.ModRef {
		t.Errorf("loopless query must be conservative: %s", r.Result)
	}
}

func TestMemSpecCostDominatesCheapChecks(t *testing.T) {
	data, prog := load(t, src)
	ms := New(data)
	_, bufStore, bufLoad, _ := findOps(t, prog)
	a := ms.Assertion(bufStore, bufLoad)
	if a.Cost <= core.CostHeapCheck*400 {
		t.Errorf("memory speculation must cost more than heap checks: %g", a.Cost)
	}
	if len(a.Points) != 2 {
		t.Errorf("assertion points = %d", len(a.Points))
	}
}

// TestMemDepFirstUseConcurrent: the memory-dependence profile runs on
// first use; eight goroutines racing to that first use on a fresh profile
// must all see the answers a serial caller sees.
func TestMemDepFirstUseConcurrent(t *testing.T) {
	serialData, prog := load(t, src)
	loop := prog.Forests[prog.Mod.FuncNamed("main")].All[0]
	ops := loop.MemOps()
	answers := func(ms *MemSpec) []bool {
		var out []bool
		for _, i1 := range ops {
			for _, i2 := range ops {
				for _, rel := range []core.TemporalRelation{core.Before, core.Same} {
					out = append(out, ms.NoDep(loop, i1, i2, rel))
				}
			}
		}
		return out
	}
	want := answers(New(serialData))
	if !reflect.DeepEqual(want, answers(New(serialData))) || !contains(want, true) || !contains(want, false) {
		t.Fatalf("serial answers are unstable or one-sided: %v", want)
	}

	fresh, err := profile.Collect(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := New(fresh)
	got := make([][]bool, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = answers(ms)
		}(g)
	}
	wg.Wait()
	for g, ans := range got {
		if !reflect.DeepEqual(ans, want) {
			t.Errorf("goroutine %d answers differ from the serial ones", g)
		}
	}
}

func contains(bs []bool, b bool) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}
