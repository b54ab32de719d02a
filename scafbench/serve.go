package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// residentPrograms are the sessions the serving workloads keep warm.
var residentPrograms = []string{"129.compress", "175.vpr", "181.mcf", "462.libquantum"}

// qkey is one harvested /query key of a resident session.
type qkey struct {
	sess, prog, scheme, loop, i1, i2, rel string
}

func (k qkey) answerKey() string { return queryKey(k.prog, k.scheme, k.loop, k.i1, k.i2, k.rel) }

// lkey is one (session, scheme, loop) single-loop /analyze.
type lkey struct{ sess, prog, scheme, loop string }

// warm is a booted fleet with resident sessions whose every (scheme,
// loop) has been analyzed once.
type warm struct {
	fl    *fleet
	keys  []qkey
	loops []lkey
	// harvested holds the warm-up answers, checked against the library
	// reference once set-up timing has ended.
	harvested map[string][]byte
}

// createBody is a create request for an embedded program. With scoped the
// request passes the default hot-loop thresholds explicitly: answers are
// unchanged, but the fleet then treats the session as a different program
// from the resident ones, so a recovery broadcast from it never reaches
// them.
func createBody(name string, scoped bool) map[string]any {
	b := map[string]any{"bench": name}
	if scoped {
		b["hot_loops"] = map[string]float64{"min_weight_frac": 0.10, "min_avg_iters": 50}
	}
	return b
}

func sessionID(raw []byte) (string, error) {
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &info); err != nil || info.ID == "" {
		return "", fmt.Errorf("create: no session id in %.200s", raw)
	}
	return info.ID, nil
}

// wireLoop is an /analyze result with each query's bytes kept as served.
type wireLoop struct {
	Loop    string            `json:"loop"`
	Queries []json.RawMessage `json:"queries"`
}

type wireQuery struct {
	I1      string `json:"i1"`
	I2      string `json:"i2"`
	Rel     string `json:"rel"`
	Options []struct {
		Asserts []string `json:"asserts"`
	} `json:"options"`
}

func decodeAnalyze(raw []byte) ([]wireLoop, error) {
	var ar struct {
		Results []wireLoop `json:"results"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		return nil, fmt.Errorf("decode /analyze: %w", err)
	}
	return ar.Results, nil
}

// setupWarm boots a fleet, creates a session per program through the
// router and warms every (scheme, loop) with /analyze.
func setupWarm(c *client, progs []string, rng *rand.Rand) (*warm, error) {
	fl, err := bootFleet()
	if err != nil {
		return nil, err
	}
	w := &warm{fl: fl, harvested: map[string][]byte{}}
	for _, i := range rng.Perm(len(progs)) {
		prog := progs[i]
		raw, err := c.expect(nil, "/sessions", "POST", fl.url+"/sessions", createBody(prog, false), http.StatusCreated)
		if err != nil {
			fl.close()
			return nil, err
		}
		id, err := sessionID(raw)
		if err != nil {
			fl.close()
			return nil, err
		}
		for _, sc := range schemes {
			raw, err := c.expect(nil, "/sessions/{id}/analyze", "POST", fl.url+"/sessions/"+id+"/analyze",
				map[string]any{"scheme": sc.name}, http.StatusOK)
			if err != nil {
				fl.close()
				return nil, err
			}
			loops, err := decodeAnalyze(raw)
			if err != nil {
				fl.close()
				return nil, err
			}
			for _, lr := range loops {
				w.loops = append(w.loops, lkey{id, prog, sc.name, lr.Loop})
				for _, q := range lr.Queries {
					var wq wireQuery
					if err := json.Unmarshal(q, &wq); err != nil {
						fl.close()
						return nil, fmt.Errorf("decode query: %w", err)
					}
					k := qkey{id, prog, sc.name, lr.Loop, wq.I1, wq.I2, wq.Rel}
					w.keys = append(w.keys, k)
					w.harvested[k.answerKey()] = q
				}
			}
		}
	}
	if len(w.keys) == 0 {
		fl.close()
		return nil, fmt.Errorf("warm-up harvested no query keys")
	}
	return w, nil
}

// libraryAnswers resolves every hot loop of progs under every scheme on
// the library path: the reference every served answer must equal byte for
// byte.
func libraryAnswers(names []string) (map[string][]byte, []*program, error) {
	var progs []*program
	order := make([]int, len(names))
	for i, n := range names {
		p, err := loadProgram(n)
		if err != nil {
			return nil, nil, err
		}
		progs = append(progs, p)
		order[i] = i
	}
	return resolvePass(progs, order, nil, true).answers, progs, nil
}

// checkServed compares one served answer with the library's and folds it
// into the digest.
func checkServed(r *result, ref map[string][]byte, key string, served []byte) error {
	want, ok := ref[key]
	if !ok {
		return fmt.Errorf("served answer for %s has no library counterpart", key)
	}
	if !bytes.Equal(want, served) {
		return fmt.Errorf("served answer for %s differs from the library path: %s vs %s", key, served, want)
	}
	return r.answer(key, served)
}

// reads are one caller's measured /query and /analyze samples.
type reads struct {
	queryUS, analyzeUS       []float64
	queryBytes, analyzeBytes int64
	// analyzeByLoop holds the /analyze samples per (session, scheme, loop).
	analyzeByLoop map[lkey][]float64
}

func (a *reads) add(b *reads) {
	a.queryUS = append(a.queryUS, b.queryUS...)
	a.analyzeUS = append(a.analyzeUS, b.analyzeUS...)
	a.queryBytes += b.queryBytes
	a.analyzeBytes += b.analyzeBytes
	for k, v := range b.analyzeByLoop {
		if a.analyzeByLoop == nil {
			a.analyzeByLoop = map[lkey][]float64{}
		}
		a.analyzeByLoop[k] = append(a.analyzeByLoop[k], v...)
	}
}

// loopMeanMS is the mean over loops of each loop's median /analyze
// latency. Loops differ in size several-fold, so a pooled median would
// move with the seeded mix of loops; this does not.
func (a *reads) loopMeanMS() (float64, int) {
	var sum float64
	for _, v := range a.analyzeByLoop {
		sum += median(v)
	}
	if len(a.analyzeByLoop) == 0 {
		return 0, 0
	}
	return sum / float64(len(a.analyzeByLoop)) / 1e3, len(a.analyzeUS)
}

// analyzeFrac is the share of single-loop /analyze in the read mix.
const analyzeFrac = 0.10

// readOne issues one seeded read — a /query, or with probability
// analyzeFrac a single-loop /analyze — and checks its answer. A failed
// read contributes no latency sample.
func readOne(c *client, r *result, w *warm, ref map[string][]byte, rng *rand.Rand, out *reads) {
	if rng.Float64() >= analyzeFrac {
		k := w.keys[rng.Intn(len(w.keys))]
		lat, n, err := query(c, r, ref, w.fl.url, k)
		if r.op(err) {
			out.queryUS = append(out.queryUS, us(lat))
			out.queryBytes += int64(n)
		}
		return
	}
	lk := w.loops[rng.Intn(len(w.loops))]
	t0 := time.Now()
	raw, err := c.expect(nil, "/sessions/{id}/analyze", "POST", w.fl.url+"/sessions/"+lk.sess+"/analyze",
		map[string]any{"scheme": lk.scheme, "loops": []string{lk.loop}}, http.StatusOK)
	lat := time.Since(t0)
	if err == nil {
		err = checkLoops(r, ref, lk.prog, lk.scheme, raw, 1)
	}
	if r.op(err) {
		out.analyzeUS = append(out.analyzeUS, us(lat))
		out.analyzeBytes += int64(len(raw))
		if out.analyzeByLoop == nil {
			out.analyzeByLoop = map[lkey][]float64{}
		}
		out.analyzeByLoop[lk] = append(out.analyzeByLoop[lk], us(lat))
	}
}

// query asks one harvested key at base (the router or one backend) and
// checks the answer; it returns the latency and the response size.
func query(c *client, r *result, ref map[string][]byte, base string, k qkey) (time.Duration, int, error) {
	t0 := time.Now()
	raw, err := c.expect(nil, "/sessions/{id}/query", "POST", base+"/sessions/"+k.sess+"/query",
		map[string]any{"scheme": k.scheme, "loop": k.loop, "i1": k.i1, "i2": k.i2, "rel": k.rel}, http.StatusOK)
	lat := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	var env struct {
		Query json.RawMessage `json:"query"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return 0, 0, fmt.Errorf("decode /query: %w", err)
	}
	return lat, len(raw), checkServed(r, ref, k.answerKey(), env.Query)
}

// checkLoops checks every query of an /analyze answer against the library
// path; want is the number of loops the answer must hold (0: any).
func checkLoops(r *result, ref map[string][]byte, prog, scheme string, raw []byte, want int) error {
	loops, err := decodeAnalyze(raw)
	if err != nil {
		return err
	}
	if want > 0 && len(loops) != want {
		return fmt.Errorf("/analyze returned %d loops, want %d", len(loops), want)
	}
	for _, lr := range loops {
		for _, q := range lr.Queries {
			var wq wireQuery
			if err := json.Unmarshal(q, &wq); err != nil {
				return err
			}
			if err := checkServed(r, ref, queryKey(prog, scheme, lr.Loop, wq.I1, wq.I2, wq.Rel), q); err != nil {
				return err
			}
		}
	}
	return nil
}

// readers runs n closed-loop read callers, each with its own seeded
// stream, until stop returns true for the caller's count of reads so far.
func readers(n int, c *client, r *result, w *warm, ref map[string][]byte, seed int64, stop func(ops int) bool) *reads {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all reads
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(i) + 1))
			var mine reads
			for ops := 0; !stop(ops); ops++ {
				readOne(c, r, w, ref, rng, &mine)
			}
			mu.Lock()
			all.add(&mine)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return &all
}

// setupServing sets up setupReps times — fleet boot, resident creates,
// warm-up — and keeps the last fleet; set-up time is the median.
func setupServing(e *env, r *result, c *client, progs []string, rng *rand.Rand) (*warm, error) {
	var (
		w      *warm
		setups []float64
	)
	for i := 0; i < setupReps(e); i++ {
		if w != nil {
			w.fl.close()
			w = nil
			runtime.GC() // the previous fleet is not part of this set-up's peak
		}
		t0 := time.Now()
		nw, err := setupWarm(c, progs, rng)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		w = nw
	}
	r.set("setup_s", median(setups), "s", len(setups))
	return w, nil
}

func servingPrograms(e *env) []string {
	if e.tiny {
		return []string{"129.compress"}
	}
	return residentPrograms
}

// runServeWarm drives router + 2 backends with 2 read callers over warm
// caches: the read side of the cache layer.
func runServeWarm(e *env, r *result) error {
	progs := servingPrograms(e)
	rng := rand.New(rand.NewSource(e.seed))
	c := newClient(e)
	defer c.close()
	w, err := setupServing(e, r, c, progs, rng)
	if err != nil {
		return err
	}
	defer w.fl.close()
	ref, libProgs, err := libraryAnswers(progs)
	if err != nil {
		return err
	}
	for k, v := range w.harvested {
		r.op(checkServed(r, ref, k, v))
	}
	r.set("query_keys", float64(len(w.keys)), "count", 1)

	if e.traced {
		return traceServing(e, r, c, w, ref, libProgs, rng, nil)
	}
	t0 := time.Now()
	deadline := t0.Add(e.duration)
	perCaller := minReads / e.callers
	rd := readers(e.callers, c, r, w, ref, e.seed, func(ops int) bool {
		return ops >= perCaller && !time.Now().Before(deadline)
	})
	el := time.Since(t0)
	r.set("requests_per_s", float64(len(rd.queryUS)+len(rd.analyzeUS))/el.Seconds(), "requests/s", len(rd.queryUS)+len(rd.analyzeUS))
	r.setPct("query_p50_us", rd.queryUS, 50, 1, "us")
	r.setPct("query_p99_us", rd.queryUS, 99, 1, "us")
	r.setPct("analyze_p50_us", rd.analyzeUS, 50, 1, "us")
	r.setPct("analyze_p99_us", rd.analyzeUS, 99, 1, "us")
	if v, n := rd.loopMeanMS(); n > 0 {
		r.set("analyze_loop_p50_ms", v, "ms", n)
	}
	alias(r, "ops_per_s", "requests_per_s", "1/s")
	alias(r, "op_p50_us", "query_p50_us", "us")
	alias(r, "op_tail_us", "query_p99_us", "us")
	alias(r, "heavy_p50_ms", "analyze_loop_p50_ms", "ms")
	return nil
}
