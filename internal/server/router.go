package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scaf/internal/fleet"
	"scaf/internal/persist"
	"scaf/internal/recovery"
)

// The fleet's front tier: a Router speaks the exact scaf-serve HTTP
// surface and spreads it across N backend instances. The router mints
// each session ID (s<n>, once per create attempt — the sequence a single
// scaf-serve mints) and broadcasts the create as PUT /sessions/{id};
// creates and deletes go to every backend in one serialized order, so the
// backends' session registries stay identical. Read traffic (analyze,
// query) shards across backends by consistent hash, which is sound
// because every answer is a pure function of (session state,
// proposition): any backend serves the same bytes, the fleet cache tier
// only changes who computes them.
//
// There is deliberately no failover: a request for a down backend's shard
// is refused with 503 + Retry-After rather than silently re-homed, so a
// partition degrades capacity, never placement determinism. A backend
// coming back is caught up against the router's live session set and its
// up peers (catchUp: sessions deleted while it was away are dropped,
// missing ones recreated under their IDs) and its quarantine state
// re-synchronized from live peers before it takes traffic again.

// RouterConfig configures a fleet front tier.
type RouterConfig struct {
	// Backends maps backend IDs to base URLs (e.g. "b0" ->
	// "http://127.0.0.1:8347"). IDs are the shard names.
	Backends map[string]string
	// Deprecated: Route is ignored. Reads always shard by consistent
	// hash; the round-robin policy was removed.
	Route string
	// Timeout bounds each proxied backend request (0: unbounded — analyze
	// batches can legitimately run long).
	Timeout time.Duration
	// Probe is the health-probe period for down backends (0: no background
	// prober; Probe() can still be called explicitly).
	Probe time.Duration
	// ProbeMax caps the prober's exponential backoff per down backend
	// (0: 16× Probe). Each consecutive failed probe doubles that
	// backend's reprobe delay from Probe up to this cap, with a small
	// deterministic jitter derived from (id, failure count) so a wall of
	// routers probing the same dead backend never synchronizes.
	ProbeMax time.Duration
	// DrainTimeout bounds the fenced drain during a membership change
	// (0: 30s). If in-flight reads have not finished by then, the move
	// rolls back to the old owner instead of wedging the fleet.
	DrainTimeout time.Duration
	// CacheDir, when non-empty, persists the router's live session set
	// (each session's create body, create reply and hot loops) there on
	// Close and loads it on boot, so a restarted router can still catch
	// up an empty backend. Validated with the same checksummed framing as
	// the cache snapshots — a corrupt file degrades to the valid prefix
	// (at worst a router that knows fewer sessions), never a wrong
	// replay. Membership changes are persisted too, so a restarted router
	// serves the post-elasticity fleet, not the boot-time one. With or
	// without it, a restarted router mints no ID a backend already holds.
	CacheDir string
}

const defaultDrainTimeout = 30 * time.Second

// liveSession is one session the fleet holds: the client's create body
// (what a catch-up PUTs), the agreed create reply (what a backend's
// listing of the session must equal byte for byte), and the hot loops an
// analyze without a loop list fans out over. Immutable once stored.
type liveSession struct {
	body, reply []byte
	loops       []string
}

// ProbeInfo is one down backend's prober state as exposed in /metrics:
// consecutive failures, the current backoff delay, and how far away the
// next probe is.
type ProbeInfo struct {
	Failures  int   `json:"failures"`
	BackoffMS int64 `json:"backoff_ms"`
	NextInMS  int64 `json:"next_in_ms"`
}

// RouterCounters are the router's own /metrics counters.
type RouterCounters struct {
	Proxied      int64                `json:"proxied"`
	Fanouts      int64                `json:"fanouts"`
	Refused      int64                `json:"refused"`
	Inconsistent int64                `json:"inconsistent"`
	Rejoins      int64                `json:"rejoins"`
	Joins        int64                `json:"joins"`
	Leaves       int64                `json:"leaves"`
	Rollbacks    int64                `json:"rollbacks"`
	Moved503     int64                `json:"moved_503"`
	Sessions     int                  `json:"sessions"`
	Members      []string             `json:"members"`
	Pending      string               `json:"pending,omitempty"`
	Down         []string             `json:"down,omitempty"`
	Probes       map[string]ProbeInfo `json:"probes,omitempty"`
}

// RouterMetrics is the router's /metrics body: its own counters plus each
// live backend's verbatim metrics document.
type RouterMetrics struct {
	Router   RouterCounters             `json:"router"`
	Backends map[string]json.RawMessage `json:"backends"`
}

// RouterHealth is the router's /healthz body.
type RouterHealth struct {
	Status   string            `json:"status"`
	Backends map[string]string `json:"backends"`
	Sessions int               `json:"sessions"`
}

// readGen is one read generation: every sharded read joins the current
// generation for its lifetime, and a membership cutover drains the old
// generation (waits for its WaitGroup) after installing the fence.
type readGen struct {
	wg sync.WaitGroup
}

// probeState is the prober's per-down-backend backoff state.
type probeState struct {
	fails int
	next  time.Time
}

// Router is the fleet front tier.
type Router struct {
	cfg RouterConfig
	hc  *http.Client
	mux *http.ServeMux

	// bmu serializes session creates and deletes, catch-ups, and the
	// fenced phase of membership moves: every backend sees creates and
	// deletes in the same order, and a catch-up reads a live set that
	// cannot move under it. It also guards the ID counter: lastID is the
	// highest ID minted, seeded past every known ID before the first
	// create after boot.
	bmu    sync.Mutex
	lastID int
	seeded bool

	// mu guards the mutable fleet view. Membership is live: join/leave
	// rewrite ids/base/ring, and during a cutover nextRing carries the
	// post-move placement (the epoch fence) while gen tracks in-flight
	// sharded reads so the old placement can be drained before the flip.
	mu       sync.Mutex
	ids      []string
	base     map[string]string
	ring     *fleet.Ring
	nextRing *fleet.Ring // non-nil only while a segment fence is up
	gen      *readGen
	moveID   string // backend mid-join/mid-leave ("" when no move)
	moveOp   string // "join" or "leave"
	down     map[string]bool
	probe    map[string]probeState
	sessions map[string]*liveSession // the live session set, by ID

	rrNext                                           atomic.Uint64
	proxied, fanouts, refused, inconsistent, rejoins atomic.Int64
	joins, leaves, rollbacks, moved503               atomic.Int64

	// moveHook, when set before serving, observes cutover phase
	// transitions (op, phase, id). Test seam for killing participants at
	// exact points of the state machine.
	moveHook func(op, phase, id string)

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// NewRouter builds a front tier over cfg.Backends.
func NewRouter(cfg RouterConfig) *Router {
	rt := &Router{
		cfg:      cfg,
		base:     map[string]string{},
		hc:       &http.Client{Timeout: cfg.Timeout},
		gen:      &readGen{},
		down:     map[string]bool{},
		probe:    map[string]probeState{},
		sessions: map[string]*liveSession{},
		stop:     make(chan struct{}),
	}
	for id, base := range cfg.Backends {
		rt.ids = append(rt.ids, id)
		rt.base[id] = base
	}
	sort.Strings(rt.ids)
	rt.ring = fleet.NewRing(rt.ids, 0)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /sessions", rt.handleCreate)
	mux.HandleFunc("GET /sessions", rt.handleReadAny)
	mux.HandleFunc("GET /sessions/{id}", rt.handleReadAny)
	mux.HandleFunc("DELETE /sessions/{id}", rt.handleDelete)
	mux.HandleFunc("POST /sessions/{id}/analyze", rt.handleAnalyze)
	mux.HandleFunc("POST /sessions/{id}/query", rt.handleQuery)
	mux.HandleFunc("POST /sessions/{id}/observe", rt.handleMutation)
	mux.HandleFunc("POST /sessions/{id}/execute", rt.handleMutation)
	mux.HandleFunc("POST /fleet/join", rt.handleJoin)
	mux.HandleFunc("POST /fleet/leave", rt.handleLeave)
	rt.mux = mux

	if cfg.CacheDir != "" {
		rt.loadPersist()
	}
	if cfg.Probe > 0 {
		rt.done.Add(1)
		go rt.probeLoop(cfg.Probe)
	}
	return rt
}

// routerSessionRecord is one live session on disk.
type routerSessionRecord struct {
	ID    string   `json:"id"`
	Body  []byte   `json:"body"`
	Reply []byte   `json:"reply"`
	Loops []string `json:"loops"`
}

// routerMemberRecord is one fleet member on disk: membership is live
// state now, so a restarted router must serve the post-elasticity
// fleet, not the boot-time -backends flag.
type routerMemberRecord struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// routerSnapFile is the router's snapshot file inside CacheDir.
const routerSnapFile = "router.snap"

func (rt *Router) persistPath() string {
	return filepath.Join(rt.cfg.CacheDir, routerSnapFile)
}

// savePersist writes the membership and the live session set with the
// persist framing (persist.WriteAtomic of a full re-encode — the live set
// is small relative to cache shards, and a single atomic file keeps the
// two consistent with each other).
func (rt *Router) savePersist() {
	if err := os.MkdirAll(rt.cfg.CacheDir, 0o755); err != nil {
		log.Printf("router: persist save: %v", err)
		return
	}
	rt.mu.Lock()
	records := make([]persist.Record, 0, len(rt.ids)+len(rt.sessions))
	for _, id := range rt.ids {
		p, _ := json.Marshal(routerMemberRecord{ID: id, URL: rt.base[id]})
		records = append(records, persist.Record{Kind: persist.KindMembers, Payload: p})
	}
	for _, sid := range rt.liveOrder() {
		ls := rt.sessions[sid]
		p, _ := json.Marshal(routerSessionRecord{ID: sid, Body: ls.body, Reply: ls.reply, Loops: ls.loops})
		records = append(records, persist.Record{Kind: persist.KindSessions, Payload: p})
	}
	rt.mu.Unlock()
	if err := persist.WriteAtomic(rt.cfg.CacheDir, routerSnapFile, persist.EncodeFile(records)); err != nil {
		log.Printf("router: persist save: %v", err)
	}
}

// loadPersist restores the membership and the live session set from a
// prior graceful Close. Corruption degrades to the valid prefix: a
// session lost from the file is one the router no longer knows, never a
// wrong one. Its backends keep serving it, and a catch-up keeps it where
// the up peers list it the same way and refuses a backend that lacks it.
// A snapshot from before router-minted IDs keeps its membership only (its
// 'j' journal records stop the load).
func (rt *Router) loadPersist() {
	data, err := os.ReadFile(rt.persistPath())
	if err != nil {
		return
	}
	records, _ := persist.DecodeFile(data)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Member records come first in the file; those read before a record
	// that stops the load still apply (valid-prefix rule). The boot-time
	// Backends map stays authoritative for the IDs it names (an operator
	// restarting the router with fresh URLs must win); persisted records
	// extend it with backends that joined live and were never in the
	// flags. A snapshot from before elasticity has no member records.
	grown := false
load:
	for _, r := range records {
		switch r.Kind {
		case persist.KindMembers:
			var mr routerMemberRecord
			if err := json.Unmarshal(r.Payload, &mr); err != nil || mr.ID == "" || mr.URL == "" {
				break load
			}
			if _, known := rt.base[mr.ID]; !known {
				rt.ids = append(rt.ids, mr.ID)
				rt.base[mr.ID] = mr.URL
				grown = true
			}
		case persist.KindSessions:
			var sr routerSessionRecord
			if err := json.Unmarshal(r.Payload, &sr); err != nil || len(sr.Body) == 0 || len(sr.Reply) == 0 {
				break load
			}
			if _, ok := parseSessionID(sr.ID); !ok {
				break load
			}
			rt.sessions[sr.ID] = &liveSession{body: sr.Body, reply: sr.Reply, loops: sr.Loops}
		default:
			break load
		}
	}
	if grown {
		sort.Strings(rt.ids)
		rt.ring = fleet.NewRing(rt.ids, 0)
	}
}

// Handler returns the router's HTTP handler (the scaf-serve surface).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the background prober, drops pooled backend connections,
// and persists the live session set when a CacheDir is configured.
// Closing the pool matters for orderly teardown: a spare never-used
// connection parked on a backend reads as StateNew there, and
// http.Server.Shutdown only reaps those after a five-second grace.
// Idempotent and safe under concurrent callers; every Close returns
// only after the teardown has completed exactly once.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() {
		close(rt.stop)
		rt.done.Wait()
		rt.hc.CloseIdleConnections()
		if rt.cfg.CacheDir != "" {
			rt.savePersist()
		}
	})
}

func (rt *Router) probeLoop(period time.Duration) {
	defer rt.done.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case now := <-t.C:
			rt.probeDue(now)
		}
	}
}

// backoffDelay computes a down backend's reprobe delay: the probe period
// doubled per consecutive failure, capped at ProbeMax, plus a
// deterministic jitter in [0, delay/4] derived from (id, fails) — the
// same inputs give the same delay everywhere, so behavior stays
// reproducible, while distinct backends (and successive failures)
// de-synchronize instead of stampeding together.
func (rt *Router) backoffDelay(id string, fails int) time.Duration {
	base := rt.cfg.Probe
	if base <= 0 {
		base = 2 * time.Second
	}
	limit := rt.cfg.ProbeMax
	if limit <= 0 {
		limit = 16 * base
	}
	d := base
	for i := 1; i < fails && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", id, fails)
	return d + time.Duration(h.Sum64()%uint64(d/4+1))
}

// probeDue probes only the down backends whose backoff has elapsed; a
// zero now forces all of them (explicit Probe()).
func (rt *Router) probeDue(now time.Time) {
	rt.mu.Lock()
	var due []string
	for _, id := range rt.ids {
		if !rt.down[id] {
			continue
		}
		if now.IsZero() || !now.Before(rt.probe[id].next) {
			due = append(due, id)
		}
	}
	rt.mu.Unlock()
	for _, id := range due {
		rt.tryRejoin(id)
		rt.mu.Lock()
		if rt.down[id] {
			st := rt.probe[id]
			st.fails++
			st.next = time.Now().Add(rt.backoffDelay(id, st.fails))
			rt.probe[id] = st
		} else {
			delete(rt.probe, id)
		}
		rt.mu.Unlock()
	}
}

// ---- backend bookkeeping ----

func (rt *Router) isDown(id string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.down[id]
}

func (rt *Router) markDown(id string) {
	rt.mu.Lock()
	rt.down[id] = true
	rt.mu.Unlock()
}

// upIDs returns the live backends, sorted.
func (rt *Router) upIDs() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(rt.ids), func(id string) bool { return rt.down[id] })
}

// pick returns the consistent-hash owner of a read keyed by key. A down
// owner, or one whose segment is mid-move, is refused with a retryable
// 503 rather than re-homed.
func (rt *Router) pick(key string) (string, *httpError) {
	rt.mu.Lock()
	id := rt.ring.Owner(key)
	moving := rt.nextRing != nil && rt.nextRing.Owner(key) != id
	down := rt.down[id]
	rt.mu.Unlock()
	if moving {
		// The epoch fence: this key's segment is mid-cutover. Refusing
		// with a bounded, retryable 503 is the only client-visible effect
		// of a move — the key is never served from two owners at once.
		rt.moved503.Add(1)
		rt.refused.Add(1)
		return "", errBackendDown("segment owned by %s is moving; retry shortly", id)
	}
	if down {
		rt.refused.Add(1)
		return "", errBackendDown("backend %s owns this shard and is down", id)
	}
	return id, nil
}

// beginRead joins the current read generation; the caller must call
// endRead (Done) when the read finishes. A cutover swaps the generation
// after installing the fence and waits out the old one, so every read
// admitted under the old placement completes before ownership flips.
func (rt *Router) beginRead() *readGen {
	rt.mu.Lock()
	g := rt.gen
	g.wg.Add(1)
	rt.mu.Unlock()
	return g
}

func (rt *Router) errNoBackends() *httpError {
	rt.refused.Add(1)
	return errBackendDown("no live backends")
}

// errBackendDown is the retryable 503 for a shard that cannot be served
// now.
func errBackendDown(format string, args ...any) *httpError {
	he := moveErr(http.StatusServiceUnavailable, "backend_down", format, args...)
	he.retryAfter = "1"
	return he
}

// baseURL resolves a backend's base URL under the membership lock.
func (rt *Router) baseURL(id string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.base[id]
}

// send issues one client-facing backend request: probeSend, plus a
// transport failure (status 0) marks the backend down.
func (rt *Router) send(id, method, path string, body []byte) (int, http.Header, []byte) {
	st, hdr, raw := rt.probeSend(id, method, path, body)
	if st == 0 {
		rt.markDown(id)
	} else {
		rt.proxied.Add(1)
	}
	return st, hdr, raw
}

// reply is one backend's answer to a request sendAll fanned out.
type reply struct {
	id     string
	status int
	hdr    http.Header
	body   []byte
}

// sendAll sends body(i) to targets[i] for every i in parallel.
func (rt *Router) sendAll(targets []string, method, path string, body func(i int) []byte) []reply {
	out := make([]reply, len(targets))
	var wg sync.WaitGroup
	for i, id := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, hdr, b := rt.send(id, method, path, body(i))
			out[i] = reply{id: id, status: st, hdr: hdr, body: b}
		}()
	}
	wg.Wait()
	return out
}

const maxPeerResponse = 64 << 20

// relay writes a backend response through verbatim; status 0 (transport
// failure) becomes a 503.
func (rt *Router) relay(w http.ResponseWriter, id string, status int, hdr http.Header, body []byte) {
	if status == 0 {
		writeError(w, errBackendDown("backend %s did not answer", id))
		return
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := hdr.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(status)
	w.Write(body)
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, errBadRequest("reading request body: %v", err))
		return nil, false
	}
	return body, true
}

// ---- session mutations: serialized broadcast ----

// broadcast sends one mutation to every live backend in parallel (each
// backend sees at most one in-flight mutation thanks to bmu) and demands
// byte-identical responses: the backends hold replicated state, so any
// divergence is a fleet inconsistency, surfaced as 502 rather than papered
// over.
func (rt *Router) broadcast(method, path string, body []byte) (int, http.Header, []byte, *httpError) {
	up := rt.upIDs()
	if len(up) == 0 {
		return 0, nil, nil, rt.errNoBackends()
	}
	replies := rt.sendAll(up, method, path, func(int) []byte { return body })
	first := -1
	for i, rp := range replies {
		if rp.status == 0 {
			// Died mid-broadcast: the catch-up at rejoin restores it.
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		f := replies[first]
		if rp.status != f.status || !bytes.Equal(rp.body, f.body) {
			rt.inconsistent.Add(1)
			return 0, nil, nil, &httpError{status: http.StatusBadGateway,
				detail: ErrorDetail{Code: "fleet_inconsistent",
					Message: fmt.Sprintf("backends %s and %s disagree on %s %s (%d vs %d)",
						f.id, rp.id, method, path, f.status, rp.status)}}
		}
	}
	if first < 0 {
		return 0, nil, nil, rt.errNoBackends()
	}
	return replies[first].status, replies[first].hdr, replies[first].body, nil
}

// handleCreate mints the next session ID and broadcasts the create, with
// the client's body unchanged, as PUT /sessions/{id}. A single scaf-serve
// mints an ID for every create that decodes, failed builds included, so
// the router burns one on the same attempts: a body that does not decode
// is refused here, and a create no backend answered, or every backend
// shed before building (429, 503), hands its ID back. A create the
// backends disagree on (502 fleet_inconsistent) keeps it burned: some of
// them built it. Only a successful create enters the live set.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if he := decodeStrict(bytes.NewReader(body), &CreateSessionRequest{}); he != nil {
		writeError(w, he)
		return
	}
	rt.bmu.Lock()
	defer rt.bmu.Unlock()
	if !rt.seeded {
		rt.seedIDs()
	}
	rt.lastID++
	sid := "s" + strconv.Itoa(rt.lastID)

	status, hdr, resp, he := rt.broadcast(http.MethodPut, "/sessions/"+sid, body)
	if he != nil {
		if he.status == http.StatusServiceUnavailable {
			rt.lastID--
		}
		writeError(w, he)
		return
	}
	switch status {
	case http.StatusCreated:
		var info SessionInfo
		_ = json.Unmarshal(resp, &info)
		ls := &liveSession{body: body, reply: resp, loops: make([]string, 0, len(info.HotLoops))}
		for _, l := range info.HotLoops {
			ls.loops = append(ls.loops, l.Name)
		}
		rt.mu.Lock()
		rt.sessions[sid] = ls
		rt.mu.Unlock()
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		rt.lastID--
	}
	rt.relay(w, "", status, hdr, resp)
}

// seedIDs moves the ID counter past every ID in the live set and on every
// up backend, so a router restarted with or without a CacheDir never
// mints an ID a backend already holds. Called under bmu, once.
func (rt *Router) seedIDs() {
	rt.mu.Lock()
	ids := rt.liveOrder()
	rt.mu.Unlock()
	for _, id := range rt.upIDs() {
		var have []SessionInfo
		st, _, body := rt.probeSend(id, http.MethodGet, "/sessions", nil)
		if st == 0 {
			rt.markDown(id)
		} else if st == http.StatusOK && json.Unmarshal(body, &have) == nil {
			for _, info := range have {
				ids = append(ids, info.ID)
			}
		}
	}
	for _, sid := range ids {
		n, _ := parseSessionID(sid)
		rt.lastID = max(rt.lastID, n)
	}
	rt.seeded = true
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	path := "/sessions/" + sid
	rt.bmu.Lock()
	defer rt.bmu.Unlock()

	status, hdr, resp, he := rt.broadcast(http.MethodDelete, path, nil)
	if he != nil {
		writeError(w, he)
		return
	}
	rt.mu.Lock()
	delete(rt.sessions, sid)
	rt.mu.Unlock()
	rt.relay(w, "", status, hdr, resp)
}

// ---- reads: sharded ----

func (rt *Router) handleReadAny(w http.ResponseWriter, r *http.Request) {
	up := rt.upIDs()
	if len(up) == 0 {
		writeError(w, rt.errNoBackends())
		return
	}
	id := up[rt.rrNext.Add(1)%uint64(len(up))]
	st, hdr, body := rt.send(id, r.Method, r.URL.Path, nil)
	rt.relay(w, id, st, hdr, body)
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g := rt.beginRead()
	defer g.wg.Done()
	var req QueryRequest
	// Lenient decode for the routing key only; the backend enforces the
	// strict schema and produces the deterministic error if it is bad.
	_ = json.Unmarshal(body, &req)
	rt.forward(w, r, "q|"+sid+"|"+req.Scheme+"|"+req.Loop+"|"+req.I1+"|"+req.I2+"|"+req.Rel, body)
}

func (rt *Router) handleMutation(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g := rt.beginRead()
	defer g.wg.Done()
	rt.forward(w, r, "s|"+sid, body)
}

// forward sends the request to the consistent-hash owner of key and
// relays the answer. Session-scoped work keys on "s|"+sid, the session's
// home backend, so re-resolution lands deterministically.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	id, he := rt.pick(key)
	if he != nil {
		writeError(w, he)
		return
	}
	st, hdr, resp := rt.send(id, http.MethodPost, r.URL.Path, body)
	rt.relay(w, id, st, hdr, resp)
}

// routerAnalyzeResponse mirrors AnalyzeResponse with the per-loop results
// kept as raw bytes, so a merged fan-out response serializes exactly as a
// single backend's batch response would (the splice never re-marshals a
// loop result).
type routerAnalyzeResponse struct {
	Session        string            `json:"session"`
	Scheme         string            `json:"scheme"`
	Results        []json.RawMessage `json:"results"`
	DeadlineMisses int64             `json:"deadline_misses,omitempty"`
	CoalesceHits   int64             `json:"coalesce_hits,omitempty"`
}

// handleAnalyze fans a batch request out loop-by-loop across the fleet
// and splices the results back in request order.
func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g := rt.beginRead()
	defer g.wg.Done()
	var req AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		// Forward undecodable bodies to one backend for its strict,
		// deterministic 400.
		rt.forward(w, r, "s|"+sid, body)
		return
	}

	loops := req.Loops
	if len(loops) == 0 {
		rt.mu.Lock()
		if ls := rt.sessions[sid]; ls != nil {
			loops = ls.loops
		}
		rt.mu.Unlock()
	}
	if len(loops) == 0 {
		// Unknown session or a session with no hot loops: one backend
		// produces the deterministic answer (404, or an empty batch).
		rt.forward(w, r, "s|"+sid, body)
		return
	}

	// Place every loop first; a down shard refuses the whole batch before
	// any backend spends work on it.
	targets := make([]string, len(loops))
	for i, loop := range loops {
		id, he := rt.pick("a|" + sid + "|" + req.Scheme + "|" + loop)
		if he != nil {
			writeError(w, he)
			return
		}
		targets[i] = id
	}
	rt.fanouts.Add(1)
	parts := rt.sendAll(targets, http.MethodPost, r.URL.Path, func(i int) []byte {
		sub, _ := json.Marshal(AnalyzeRequest{Scheme: req.Scheme, Loops: loops[i : i+1], DeadlineMS: req.DeadlineMS})
		return sub
	})

	merged := routerAnalyzeResponse{}
	for _, p := range parts {
		if p.status != http.StatusOK {
			// Relay the first failure verbatim (deterministic 4xx from the
			// backend, or our 503 for one that died mid-request).
			rt.relay(w, p.id, p.status, p.hdr, p.body)
			return
		}
		var sub routerAnalyzeResponse
		if err := json.Unmarshal(p.body, &sub); err != nil || len(sub.Results) != 1 {
			writeError(w, &httpError{status: http.StatusBadGateway,
				detail: ErrorDetail{Code: "fleet_inconsistent",
					Message: fmt.Sprintf("backend %s returned a malformed loop result", p.id)}})
			return
		}
		merged.Session = sub.Session
		merged.Scheme = sub.Scheme
		merged.Results = append(merged.Results, sub.Results[0])
		merged.DeadlineMisses += sub.DeadlineMisses
		merged.CoalesceHits += sub.CoalesceHits
	}
	writeJSON(w, http.StatusOK, merged)
}

// ---- aggregate endpoints ----

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := RouterHealth{Backends: map[string]string{}, Status: "degraded"}
	upCount := 0
	for _, id := range rt.upIDs() {
		if st, _, _ := rt.send(id, http.MethodGet, "/healthz", nil); st == http.StatusOK {
			h.Backends[id] = "ok"
			upCount++
		}
	}
	rt.mu.Lock()
	for _, id := range rt.ids {
		if h.Backends[id] == "" {
			h.Backends[id] = "down"
		}
	}
	h.Sessions = len(rt.sessions)
	rt.mu.Unlock()
	status := http.StatusOK
	switch {
	case upCount == len(h.Backends):
		h.Status = "ok"
	case upCount == 0:
		h.Status, status = "down", http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := RouterMetrics{Backends: map[string]json.RawMessage{}}
	for _, id := range rt.upIDs() {
		if st, _, body := rt.send(id, http.MethodGet, "/metrics", nil); st == http.StatusOK {
			m.Backends[id] = json.RawMessage(body)
		}
	}
	rt.mu.Lock()
	downIDs := slices.DeleteFunc(slices.Clone(rt.ids), func(id string) bool { return !rt.down[id] })
	members := slices.Clone(rt.ids)
	pending := rt.moveID
	var probes map[string]ProbeInfo
	if len(rt.probe) > 0 {
		probes = make(map[string]ProbeInfo, len(rt.probe))
		now := time.Now()
		for id, st := range rt.probe {
			probes[id] = ProbeInfo{
				Failures:  st.fails,
				BackoffMS: rt.backoffDelay(id, st.fails).Milliseconds(),
				NextInMS:  max(st.next.Sub(now).Milliseconds(), 0),
			}
		}
	}
	sessions := len(rt.sessions)
	rt.mu.Unlock()
	m.Router = RouterCounters{
		Proxied:      rt.proxied.Load(),
		Fanouts:      rt.fanouts.Load(),
		Refused:      rt.refused.Load(),
		Inconsistent: rt.inconsistent.Load(),
		Rejoins:      rt.rejoins.Load(),
		Joins:        rt.joins.Load(),
		Leaves:       rt.leaves.Load(),
		Rollbacks:    rt.rollbacks.Load(),
		Moved503:     rt.moved503.Load(),
		Sessions:     sessions,
		Members:      members,
		Pending:      pending,
		Down:         downIDs,
		Probes:       probes,
	}
	writeJSON(w, http.StatusOK, m)
}

// ---- rejoin ----

// Probe re-checks every down backend and rejoins the ones that answer and
// can be caught up (catchUp). A backend holding a live ID with different
// contents, or a session its up peers do not hold the same way, is left
// down: its state cannot be reconciled without operator intervention.
func (rt *Router) Probe() {
	rt.probeDue(time.Time{})
}

func (rt *Router) tryRejoin(id string) {
	rt.bmu.Lock()
	defer rt.bmu.Unlock()
	if _, _, he := rt.catchUp(id, func(string) bool { return true }); he != nil {
		return // unreachable, irreconcilable, or died mid-catch-up; next probe retries
	}
	rt.mu.Lock()
	delete(rt.down, id)
	rt.mu.Unlock()
	rt.rejoins.Add(1)
	// Best effort: teach the rejoined backend the current membership —
	// it may have been away across a join or leave and its cache tier's
	// peer set would otherwise still reflect the old fleet.
	rt.pushMembers(id)
}

// catchUp brings backend id to the fleet's session set (a rejoin, and
// both phases of a join) and returns the IDs it then holds and how many
// sessions it recreated. It lists the backend and every up peer; refuses
// (409 joiner_state) a live ID that does not list as its stored create
// reply; settles each non-live ID by the peers, since the router cannot
// tell a missed delete from a session it never learned of (a restart
// without its snapshot): kept if a peer lists the same bytes, deleted if
// no peer lists it, drop allows it and some peer answered, else refused,
// as is a non-live ID a peer holds and the backend lacks (no body to
// recreate it from); PUTs the missing live sessions in creation order;
// re-syncs quarantine. drop is nil on a joiner's unfenced first pass: it
// deletes nothing and, bmu not held, lets a peer list a create in flight.
func (rt *Router) catchUp(id string, drop func(sid string) bool) (map[string]bool, int, *httpError) {
	failed := func(format string, args ...any) (map[string]bool, int, *httpError) {
		return nil, 0, moveErr(http.StatusBadGateway, "join_failed", format, args...)
	}
	refuse := func(format string, args ...any) (map[string]bool, int, *httpError) {
		return nil, 0, moveErr(http.StatusConflict, "joiner_state", format, args...)
	}
	have, st := rt.listSessions(id)
	if st != http.StatusOK {
		return failed("backend %s cannot list its sessions", id)
	}
	peers, answered := map[string][]byte{}, 0
	for _, p := range rt.upIDs() {
		if p == id {
			continue
		}
		list, st := rt.listSessions(p)
		switch {
		case st == 0:
			rt.markDown(p) // its own rejoin reconciles it
			continue
		case st != http.StatusOK:
			return failed("peer %s cannot list its sessions", p)
		}
		answered++
		for sid, raw := range list {
			peers[sid] = raw
		}
	}
	rt.mu.Lock()
	order, live := rt.liveOrder(), maps.Clone(rt.sessions)
	rt.mu.Unlock()

	held := map[string]bool{}
	var stale []string
	for sid, raw := range have {
		peer, onPeer := peers[sid]
		switch ls := live[sid]; {
		case ls != nil && !bytes.Equal(raw, bytes.TrimSuffix(ls.reply, []byte("\n"))):
			return refuse("backend %s holds session %s with different contents; restart it empty", id, sid)
		case ls != nil, onPeer && bytes.Equal(raw, peer):
			held[sid] = true
		case !onPeer && answered > 0 && drop != nil && drop(sid):
			stale = append(stale, sid)
		default:
			return refuse("backend %s holds session %s that the fleet does not; restart it empty", id, sid)
		}
	}
	for sid := range peers {
		if drop != nil && live[sid] == nil && !held[sid] {
			return refuse("members hold session %s, which the router cannot recreate on backend %s", sid, id)
		}
	}
	sort.Strings(stale)
	for _, sid := range stale {
		if st, _, _ := rt.probeSend(id, http.MethodDelete, "/sessions/"+sid, nil); st != http.StatusNoContent {
			return failed("backend %s did not delete stale session %s", id, sid)
		}
	}
	created := 0
	for _, sid := range order {
		if held[sid] {
			continue
		}
		ls := live[sid]
		if st, _, resp := rt.probeSend(id, http.MethodPut, "/sessions/"+sid, ls.body); st != http.StatusCreated || !bytes.Equal(resp, ls.reply) {
			return failed("backend %s did not recreate session %s", id, sid)
		}
		held[sid] = true
		created++
	}
	if !rt.syncQuarantine(id, held) {
		return failed("quarantine sync to backend %s failed", id)
	}
	return held, created, nil
}

// listSessions reads one backend's GET /sessions as ID -> listing entry,
// with the reply status (0: no answer; 502 for a listing that does not
// decode).
func (rt *Router) listSessions(id string) (map[string][]byte, int) {
	st, _, body := rt.probeSend(id, http.MethodGet, "/sessions", nil)
	var raws []json.RawMessage
	if st != http.StatusOK {
		return nil, st
	}
	if json.Unmarshal(body, &raws) != nil {
		return nil, http.StatusBadGateway
	}
	out := make(map[string][]byte, len(raws))
	for _, raw := range raws {
		var info struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(raw, &info)
		out[info.ID] = raw
	}
	return out, st
}

// liveOrder returns the live session IDs in creation order, which is ID
// order: the router mints them increasing, and canonical s<n> IDs compare
// by length, then bytes. Caller holds mu.
func (rt *Router) liveOrder() []string {
	ids := make([]string, 0, len(rt.sessions))
	for sid := range rt.sessions {
		ids = append(ids, sid)
	}
	sort.Slice(ids, func(i, j int) bool {
		return len(ids[i]) < len(ids[j]) || len(ids[i]) == len(ids[j]) && ids[i] < ids[j]
	})
	return ids
}

// pushMembers sends the full membership map to one backend's cache-tier
// membership endpoint. Best effort: a backend running without the fleet
// tier answers 404, and peer-set drift costs warmth, never correctness.
func (rt *Router) pushMembers(id string) {
	rt.mu.Lock()
	req := fleet.MembersRequest{Add: make(map[string]string, len(rt.base))}
	for mid, u := range rt.base {
		req.Add[mid] = u
	}
	rt.mu.Unlock()
	b, _ := json.Marshal(req)
	rt.probeSend(id, http.MethodPost, "/fleet/members", b)
}

// syncQuarantine replays quarantine state onto a rejoined or joining
// backend, merged across every live peer's /metrics: quarantine is
// monotone, so the union over peers is always a safe target state, and
// merging protects the sync against one peer that itself missed a
// broadcast. Every quarantined assertion and module of every session is
// re-reported through the normal observe path, which is monotone and
// idempotent. This covers events from any origin (observe reports,
// misspeculating executions, module panics) that fired while the
// backend was away. At least one peer must answer; peers that do not
// are skipped (their state is a subset of the union by monotonicity or
// they are dying, and a dying peer must not block recovery).
func (rt *Router) syncQuarantine(id string, held map[string]bool) bool {
	up := rt.upIDs()
	if len(up) == 0 {
		return true // nobody to sync from; the empty fleet has no quarantine
	}
	perSession := map[string][]*recovery.Snapshot{}
	answered := 0
	for _, peer := range up {
		st, _, body := rt.probeSend(peer, http.MethodGet, "/metrics", nil)
		if st != http.StatusOK {
			continue
		}
		var m MetricsResponse
		if err := json.Unmarshal(body, &m); err != nil {
			continue
		}
		answered++
		for sid, sm := range m.Sessions {
			if !held[sid] || sm.Quarantine == nil {
				continue
			}
			perSession[sid] = append(perSession[sid], sm.Quarantine)
		}
	}
	if answered == 0 {
		return false
	}
	for sid, snaps := range perSession {
		merged := recovery.MergeSnapshots(snaps...)
		if len(merged.Asserts) == 0 && len(merged.Modules) == 0 {
			continue
		}
		req := ObserveRequest{Modules: merged.Modules}
		for _, k := range merged.Asserts {
			req.Violations = append(req.Violations, WireViolation{
				Assertion: k, Detail: "fleet: rejoin sync"})
		}
		b, _ := json.Marshal(req)
		if st, _, _ := rt.probeSend(id, http.MethodPost, "/sessions/"+sid+"/observe", b); st != http.StatusOK {
			return false
		}
	}
	return true
}

// probeSend issues one backend request; a transport error is status 0.
// Probe, catch-up and move traffic use it directly: a backend that is
// already down, or not yet a member, must not churn the down set.
func (rt *Router) probeSend(id, method, path string, body []byte) (int, http.Header, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rt.baseURL(id)+path, rd)
	if err != nil {
		return 0, nil, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		return 0, nil, nil
	}
	return resp.StatusCode, resp.Header, raw
}
