package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyRun runs one workload in tiny mode and returns its contract line and
// full result file.
func tinyRun(t *testing.T, workload string, traced bool) (map[string]any, *resultFile) {
	t.Helper()
	dir := t.TempDir()
	trace := "0"
	if traced {
		trace = "1"
	}
	var out bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "1", "-trace", trace,
		"-tiny", "-spec", "../BENCHMARK.json", "-out", dir}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	rf, err := readResultFile(filepath.Join(dir, workload+"-seed3-trace"+trace+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return line, rf
}

func metricOf(t *testing.T, rf *resultFile, name string) float64 {
	t.Helper()
	for _, m := range rf.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s: no metric %q", rf.Workload, name)
	return 0
}

// Every workload answers correctly — every answer equal to the library
// path's and the digest equal to its pin — and reports every end-to-end
// metric BENCHMARK.json lists.
func TestWorkloadsCorrect(t *testing.T) {
	want, err := readSpec("../BENCHMARK.json", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"pdg-cold", "serve-warm", "session-churn"} {
		line, rf := tinyRun(t, wl, false)
		if line["correct"] != true || line["failed"].(float64) != 0 {
			t.Errorf("%s: correct=%v failed=%v failures=%v digest=%s pinned=%s",
				wl, line["correct"], line["failed"], rf.Failures, rf.Digest, rf.Pinned)
		}
		metrics := line["metrics"].(map[string]any)
		if len(metrics) != len(want) {
			t.Errorf("%s: contract line has %d metrics, want %d", wl, len(metrics), len(want))
		}
		if rf.Host.NProc == 0 || rf.Host.GoVersion == "" || rf.Host.Clients == 0 {
			t.Errorf("%s: incomplete host fingerprint %+v", wl, rf.Host)
		}
	}
}

// The deterministic counters of a traced run repeat exactly for the same
// seed, so later changes can cite them as counts.
func TestTracedCountersRepeat(t *testing.T) {
	exact := []string{"core.evals_per_query", "plan.module_evals", "interp.steps",
		"validate.checks", "recovery.invalidated", "recovery.reresolved"}
	for _, wl := range []string{"pdg-cold", "session-churn"} {
		_, a := tinyRun(t, wl, true)
		_, b := tinyRun(t, wl, true)
		for _, name := range exact {
			if va, vb := metricOf(t, a, name), metricOf(t, b, name); va != vb {
				t.Errorf("%s: %s = %v then %v", wl, name, va, vb)
			}
		}
		if wl == "session-churn" && metricOf(t, a, "recovery.invalidated") == 0 {
			t.Errorf("%s: observe invalidated nothing", wl)
		}
	}
}

// A traced serving run reconciles each program's create stages against
// the same create served directly and reports the remainder. In time the
// remainder is smaller than the run-to-run noise of a create, so it is
// reported with that noise; in heap allocations it must be non-negative:
// the served create does every stage plus HTTP, JSON and bookkeeping.
func TestCreateReconciles(t *testing.T) {
	_, rf := tinyRun(t, "session-churn", true)
	if len(rf.Reconcile) == 0 {
		t.Fatal("no reconciliation rows")
	}
	for _, row := range rf.Reconcile {
		if row.StagesMS <= 0 || row.DirectMS <= 0 || row.NoiseMS < 0 {
			t.Errorf("%s: missing stage, direct or noise time: %+v", row.Program, row)
		}
		if row.RemainderAllocs < 0 {
			t.Errorf("%s: the stages allocate more than the served create: %+v", row.Program, row)
		}
	}
	metricOf(t, rf, "server.create_overhead_ms")
	if metricOf(t, rf, "server.create_overhead_allocs") < 0 {
		t.Error("negative create overhead in allocations")
	}
	if metricOf(t, rf, "trace.traced_ms") <= 0 {
		t.Error("no tracing overhead measurement")
	}
}

// The diff mode prints each metric with its base, new value and delta.
func TestDiff(t *testing.T) {
	_, a := tinyRun(t, "pdg-cold", true)
	dir := t.TempDir()
	var out bytes.Buffer
	pa := filepath.Join(dir, "a.json")
	b := *a
	b.Metrics = append([]metric(nil), a.Metrics...)
	for i := range b.Metrics {
		if b.Metrics[i].Name == "interp.steps" {
			b.Metrics[i].Value *= 2
		}
	}
	pb := filepath.Join(dir, "b.json")
	for p, rf := range map[string]*resultFile{pa: a, pb: &b} {
		raw, _ := json.Marshal(rf)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run([]string{"-diff", pa, pb}, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "interp.steps ") {
			if !strings.Contains(line, "+100.0%") {
				t.Errorf("diff line %q lacks the +100%% delta", line)
			}
			return
		}
	}
	t.Errorf("diff output has no interp.steps line:\n%s", out.String())
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v, ok := percentile(s, 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(s, 99); ok {
		t.Error("p99 of 100 samples reported with one sample beyond it")
	}
}
