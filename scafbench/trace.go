package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Req; Parent is the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory; they are written out with
// the result file when the run ends. A nil recorder records nothing.
type recorder struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	log  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	r     *recorder
	s     span
	start time.Time
}

// begin opens a span under parent (nil: a new operation).
func (r *recorder) begin(name string, parent *openSpan) *openSpan {
	if r == nil {
		return nil
	}
	now := time.Now()
	o := &openSpan{r: r, start: now}
	o.s = span{ID: r.next.Add(1), Name: name, Start: int64(now.Sub(r.t0))}
	if parent != nil {
		o.s.Parent, o.s.Req = parent.s.ID, parent.s.Req
	} else {
		o.s.Req = o.s.ID
	}
	return o
}

// end closes the span.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.t0))
	o.r.mu.Lock()
	o.r.log = append(o.r.log, o.s)
	o.r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.log...)
}

// spanSummary aggregates the spans of one name. Self time is each span's
// duration minus the time its direct children cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarize(spans []span) []spanSummary {
	child := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanSummary{}
	for _, s := range spans {
		ss := by[s.Name]
		if ss == nil {
			ss = &spanSummary{Name: s.Name}
			by[s.Name] = ss
		}
		d := s.End - s.Start
		self := d - child[s.ID]
		if self < 0 {
			self = 0
		}
		ss.Count++
		ss.TotalMS += float64(d) / 1e6
		ss.SelfMS += float64(self) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, ss := range by {
		out = append(out, *ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
