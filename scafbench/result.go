package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is one run's fixed parameters.
type env struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	tiny     bool
	// callers is the number of concurrent closed-loop callers, which is
	// also the cap on client connections per target.
	callers int
	rec     *recorder // nil in untraced runs
}

// checkHost refuses a run that would put more concurrent callers on the
// host than it has CPUs: the benchmark models compiler passes and IDE
// clients, each waiting for its answer, on at most one core each.
func (e *env) checkHost() error {
	if n := goruntime.NumCPU(); e.callers > n {
		return fmt.Errorf("workload %s needs %d concurrent callers but nproc is %d", e.workload, e.callers, n)
	}
	return nil
}

// host is the fingerprint recorded in every result file.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	Conns      int    `json:"conns"`
}

func fingerprint(e *env) host {
	h := host{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  goruntime.Version(),
		Seed:       e.seed,
		Clients:    e.callers,
		Conns:      e.callers,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// metric is one reported number: N is the count of samples behind it (1
// for a single measurement or a count).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result accumulates one run's outcome. Operations and answer checks may
// be recorded from several callers at once.
type result struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	answers   map[string]uint64

	metrics []metric
	index   map[string]int

	host      host
	digest    string
	pinned    string
	reconcile []reconcileRow
	spans     []spanSummary
}

func newResult(e *env) *result {
	return &result{answers: map[string]uint64{}, index: map[string]int{}, host: fingerprint(e)}
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *result) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
	return err == nil
}

// answer folds one deadline-free answer into the workload's digest. Every
// key must always receive the same bytes: a second, different answer for
// a key is a failure. The digest is the XOR of a hash per distinct key, so
// it does not depend on how often or in which order keys were asked.
func (r *result) answer(key string, payload []byte) error {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(payload)
	sum := h.Sum64()
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.answers[key]; ok && prev != sum {
		return fmt.Errorf("answer for %s changed between requests", key)
	}
	r.answers[key] = sum
	return nil
}

func (r *result) set(name string, value float64, unit string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		r.metrics[i] = metric{name, value, unit, n}
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *result) get(name string) (metric, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// setPct reports the p-th percentile of samples (in the unit scale
// divides them into) only when at least ten samples lie beyond it.
func (r *result) setPct(name string, samples []float64, p float64, scale float64, unit string) {
	if v, ok := percentile(samples, p); ok {
		r.set(name, v/scale, unit, len(samples))
	}
}

//go:embed digests.json
var digestsJSON []byte

// pinnedDigest is the answer digest this workload must reproduce. Digests
// cover every distinct answer key a run folds, which is the same set for
// every seed and for traced and untraced runs; tiny mode has its own pins.
func pinnedDigest(e *env) string {
	var pins map[string]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return ""
	}
	key := e.workload
	if e.tiny {
		key += "/tiny"
	}
	return pins[key]
}

// finish adds the run-level metrics every workload reports and settles the
// digest against its pin.
func (r *result) finish(e *env) {
	r.mu.Lock()
	var d uint64
	for _, h := range r.answers {
		d ^= h
	}
	r.digest = fmt.Sprintf("%016x", d)
	n := len(r.answers)
	attempted, failed := r.attempted, r.failed
	r.mu.Unlock()
	r.set("digest_keys", float64(n), "count", 1)
	if attempted > 0 {
		r.set("failed_frac", float64(failed)/float64(attempted), "ratio", int(attempted))
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	r.pinned = pinnedDigest(e)
}

func (r *result) correct() bool {
	return r.failed == 0 && r.attempted > 0 && r.pinned != "" && r.pinned == r.digest
}

func (r *result) print(w io.Writer) {
	h := r.host
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s seed=%d clients=%d conns=%d\n",
		h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.Seed, h.Clients, h.Conns)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-36s %16s %-8s n=%d\n", m.Name, formatValue(m.Value), m.Unit, m.N)
	}
	for _, rr := range r.reconcile {
		fmt.Fprintf(w, "reconcile %-16s stages=%.3fms direct=%.3fms remainder=%.3fms ±%.3fms remainder_allocs=%.0f\n",
			rr.Program, rr.StagesMS, rr.DirectMS, rr.RemainderMS, rr.NoiseMS, rr.RemainderAllocs)
	}
	fmt.Fprintf(w, "answers: digest=%s pinned=%s attempted=%d failed=%d\n", r.digest, r.pinned, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(w, "failure:", f)
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// resultFile is the full record of one run.
type resultFile struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Traced    bool           `json:"traced"`
	Tiny      bool           `json:"tiny,omitempty"`
	Host      host           `json:"host"`
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	Digest    string         `json:"digest"`
	Pinned    string         `json:"pinned_digest"`
	Metrics   []metric       `json:"metrics"`
	Reconcile []reconcileRow `json:"reconcile,omitempty"`
	Spans     []spanSummary  `json:"span_summary,omitempty"`
	SpanLog   []span         `json:"spans,omitempty"`
}

func (r *result) write(path string, e *env) error {
	rf := resultFile{
		Workload: e.workload, Seed: e.seed, Traced: e.traced, Tiny: e.tiny,
		Host: r.host, Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Failures: r.failures, Digest: r.digest, Pinned: r.pinned,
		Metrics: r.metrics, Reconcile: r.reconcile, Spans: r.spans,
	}
	if e.rec != nil {
		rf.SpanLog = e.rec.all()
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// contractLine renders the final stdout line: correctness, operation
// counts and exactly the metrics the benchmark definition lists.
func (r *result) contractLine(want []string) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, name := range want {
		m, ok := r.get(name)
		if !ok {
			return "", fmt.Errorf("workload did not produce metric %q", name)
		}
		ms[name] = val{m.Value, m.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	return string(raw), err
}

// percentile is the nearest-rank p-th percentile, defined only when at
// least ten samples lie beyond it.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n == 0 || n-rank < 10 {
		return 0, false
	}
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqr is the distance between the first and third quartiles.
func iqr(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return q(0.75) - q(0.25)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
