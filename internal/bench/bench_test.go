package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"scaf"
	"scaf/internal/core"
	"scaf/internal/pdg"
	"scaf/internal/profile"
	"scaf/internal/spec"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/profile.digests from the current profilers")

const profileDigests = "testdata/profile.digests"

// TestAllBenchmarksLoadAndHaveHotLoops compiles, profiles, and validates
// every benchmark program, and pins the digest of each one's profiles
// (MemDep included) to goldens captured before the profilers moved to
// dense state.
func TestAllBenchmarksLoadAndHaveHotLoops(t *testing.T) {
	golden := map[string]string{}
	if !*updateDigests {
		golden = readDigests(t, profileDigests)
	}
	digests := map[string]string{}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := Load(name)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if len(b.Hot) == 0 {
				stats := ""
				for l, st := range b.Sys.Profiles.LoopStats {
					stats += "\n  " + l.Name() + ": weight=" +
						itoa(int(100*b.Sys.Profiles.LoopWeightFrac(l))) + "% iters=" +
						itoa(int(st.AvgIters()))
				}
				t.Fatalf("no hot loops; steps=%d%s", b.Sys.Profiles.Steps, stats)
			}
			if len(b.Sys.Profiles.Output) == 0 {
				t.Error("benchmark produced no output")
			}
			t.Logf("steps=%d hot=%d output=%v", b.Sys.Profiles.Steps, len(b.Hot), b.Sys.Profiles.Output)
			digests[name] = profile.Digest(b.Sys.Profiles)
			if !*updateDigests && digests[name] != golden[name] {
				t.Errorf("profile digest %s, golden %s", digests[name], golden[name])
			}
		})
	}
	if *updateDigests {
		var out strings.Builder
		for _, name := range Names() {
			fmt.Fprintf(&out, "%s %s\n", name, digests[name])
		}
		if err := os.WriteFile(profileDigests, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDigests parses a "<name> <digest>" golden file.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, dig, _ := strings.Cut(line, " ")
		out[name] = dig
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// TestSchemeOrderingAndSoundness verifies on a representative subset:
//   - per-query monotonicity: CAF ⊆ confluence ⊆ SCAF resolutions,
//   - static soundness: CAF never disproves a dependence that manifested,
//   - speculative soundness: SCAF only disproves a manifested dependence
//     through value prediction (which legitimately removes real deps).
func TestSchemeOrderingAndSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("suite analysis in -short mode")
	}
	names := []string{"129.compress", "181.mcf", "183.equake", "525.x264"}
	s, err := LoadSuite(names...)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range s.Benchmarks {
		a := Analyze(b)
		ms := b.Sys.MemSpec()
		for _, l := range b.Hot {
			caf := a.CAF[l].ByKey()
			conf := a.Conf[l].ByKey()
			for _, q := range a.SCAF[l].Queries {
				k := pdg.Key{I1: q.I1, I2: q.I2, Rel: q.Rel}
				cafND := caf[k] != nil && caf[k].NoDep
				confND := conf[k] != nil && conf[k].NoDep
				if cafND && !confND {
					t.Errorf("%s %s: CAF resolved but confluence did not: %v", b.Name, l.Name(), k)
				}
				if confND && !q.NoDep {
					t.Errorf("%s %s: confluence resolved but SCAF did not: %v", b.Name, l.Name(), k)
				}
				observed := !ms.NoDep(l, q.I1, q.I2, q.Rel)
				if cafND && observed {
					t.Errorf("%s %s: STATIC UNSOUNDNESS: CAF disproved a manifested dep %s -> %s (%s)",
						b.Name, l.Name(), q.I1, q.I2, q.Rel)
				}
				if q.NoDep && observed && !usesValuePred(q.Resp) {
					t.Errorf("%s %s: SPECULATIVE UNSOUNDNESS: disproved manifested dep %s -> %s (%s) via %v",
						b.Name, l.Name(), q.I1, q.I2, q.Rel, q.Resp.Contribs)
				}
			}
		}
	}
}

func usesValuePred(r core.ModRefResponse) bool {
	for _, o := range r.Options {
		for _, a := range o.Asserts {
			if a.Module == spec.NameValuePred {
				return true
			}
		}
	}
	return false
}

// TestFig8Shape checks the paper's headline shape on the full suite:
// SCAF ≥ confluence ≥ CAF everywhere, SCAF strictly better on a majority
// of benchmarks, and the memory-speculation residual shrinking.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	s, err := LoadSuite()
	if err != nil {
		t.Fatal(err)
	}
	as := AnalyzeSuite(s)
	rows := Fig8(as)
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	improved := 0
	for _, r := range rows {
		if r.ConfluenceTotal() < r.CAF-1e-9 {
			t.Errorf("%s: confluence %.2f below CAF %.2f", r.Bench, r.ConfluenceTotal(), r.CAF)
		}
		if r.SCAFTotal() < r.ConfluenceTotal()-1e-9 {
			t.Errorf("%s: SCAF %.2f below confluence %.2f", r.Bench, r.SCAFTotal(), r.ConfluenceTotal())
		}
		if r.SCAFTotal() > r.ConfluenceTotal()+1e-9 {
			improved++
		}
		sum := r.CAF + r.ConfExtra + r.SCAFExtra + r.MemSpec + r.Observed
		if sum < 99.0 || sum > 101.0 {
			t.Errorf("%s: stack sums to %.2f", r.Bench, sum)
		}
		t.Logf("%-15s caf=%5.1f conf=%5.1f scaf=%5.1f memspec=%5.1f obs=%5.1f (loops=%d queries=%d)",
			r.Bench, r.CAF, r.ConfluenceTotal(), r.SCAFTotal(), r.MemSpec, r.Observed, r.HotLoops, r.Queries)
	}
	if improved < 9 {
		t.Errorf("SCAF strictly improves only %d/16 benchmarks; want a majority", improved)
	}
	sum := SummarizeFig8(rows)
	t.Logf("summary: mean increase %.2fpp, memspec residual reduction %.1f%%",
		sum.MeanIncrease, 100*sum.MemSpecReductionGeomean)
	if sum.MeanIncrease <= 0 {
		t.Error("mean SCAF-over-confluence increase should be positive")
	}
}

// TestExampleSchemesAgree is a fast smoke test over a tiny program.
func TestExampleSchemesAgree(t *testing.T) {
	src := `
int a[64];
void main() {
    for (int i = 0; i < 200; i++) {
        a[i % 64] = i;
    }
    print(a[5]);
}`
	sys, err := scaf.Load("tiny", src, scaf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hot := sys.HotLoops()
	if len(hot) != 1 {
		t.Fatalf("hot = %d", len(hot))
	}
	client := sys.Client()
	for _, scheme := range []scaf.Scheme{scaf.SchemeCAF, scaf.SchemeConfluence, scaf.SchemeSCAF} {
		res := client.AnalyzeLoop(sys.Orchestrator(scheme), hot[0])
		if len(res.Queries) == 0 {
			t.Errorf("%v: no queries", scheme)
		}
	}
}
