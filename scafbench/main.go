// Command scafbench is the repository benchmark: it drives the SCAF stack
// from outside, through the library facade and the HTTP surface of an
// in-process router + 2 backend fleet, on three named workloads, checks
// every answer, and prints each metric by name with its unit and sample
// count. The last line of standard output is one JSON object with the
// metrics BENCHMARK.json names: its end_to_end list for an untraced run
// (-trace 0), its per_layer list for a traced run (-trace 1). A full
// result file, with the host fingerprint and (traced) the spans, lands in
// -out. See README.md for the workloads, the metrics and the layer map.
//
// Usage (from the root of the checkout):
//
//	bash scafbench/run.sh --workload pdg-cold --seed 1 --seconds 15 --trace 0
//	bash scafbench/run.sh -diff old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scafbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scafbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (program order, key draws, observed assertion)")
	seconds := fs.Int("seconds", 15, "measured duration of an untraced run")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the reported metrics")
	out := fs.String("out", ".bench_out", "directory for the full result file")
	tiny := fs.Bool("tiny", false, "smallest programs and work sizes (the benchmark's own tests)")
	diff := fs.Bool("diff", false, "print per-layer deltas between two traced result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs two result files")
		}
		return diffFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *workload, workloadNames())
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be positive")
	}
	want, err := readSpec(*spec, *traced == 1)
	if err != nil {
		return err
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		tiny:     *tiny,
		callers:  wl.callers,
	}
	if err := e.checkHost(); err != nil {
		return err
	}
	if e.traced {
		e.rec = newRecorder()
	}
	res := newResult(e)
	if err := wl.run(e, res); err != nil {
		return err
	}
	res.finish(e)
	res.print(stdout)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traced))
	if err := res.write(path, e); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "result file:", path)
	line, err := res.contractLine(want)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	return nil
}

// workload is one named traffic shape.
type workload struct {
	callers int
	run     func(e *env, r *result) error
}

var workloads = map[string]workload{
	"pdg-cold":      {callers: 1, run: runPDGCold},
	"serve-warm":    {callers: 2, run: runServeWarm},
	"session-churn": {callers: 2, run: runChurn},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// minSamples is the fewest passes or lifecycles an untraced run completes,
// however short its time: a median needs ten samples beyond it.
const minSamples = 20

// minReads is the fewest reads the read callers of an untraced run
// complete: a /query p99 needs a thousand /query samples, and nine reads
// in ten are queries.
const minReads = 1500

// minChurnReads is the fewest reads the read caller of an untraced
// session-churn run completes: its /query p99.8 needs five thousand /query
// samples.
const minChurnReads = 5600

// setupReps is how many times a run sets up, reporting the median.
func setupReps(e *env) int {
	if e.tiny || e.traced {
		return 1
	}
	return 3
}

// alias reports a workload-specific end-to-end metric under the generic
// name BENCHMARK.json gates on, so each workload fills the same list.
func alias(r *result, generic, specific, unit string) {
	if m, ok := r.get(specific); ok {
		r.set(generic, m.Value, unit, m.N)
	}
}

// readSpec returns the metric names BENCHMARK.json asks a run to report:
// the end_to_end list for an untraced run, the per_layer list for a traced
// one.
func readSpec(path string, traced bool) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s lists no metrics for this run", path)
	}
	return names, nil
}
