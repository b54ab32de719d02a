GO ?= go

.PHONY: all build vet test benchmod race chaos runtime fleet elastic loadgen persist bench bench-json bench-baseline bench-check bench-mem oracle clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark (scafbench/) is its own Go module, so the root `go test
# ./...` never compiles it; this keeps an internal/server API change from
# breaking `bash scafbench/run.sh` unnoticed.
benchmod:
	cd scafbench && $(GO) vet ./... && $(GO) test ./...

# Race-detect the concurrent paths: the parallel PDG client, the shared
# memo cache, their equivalence/stress suites, and the first use of the
# on-demand memory-dependence profile from concurrent callers.
race:
	$(GO) test -race ./internal/pdg/... ./internal/core/... ./internal/profile/... ./internal/memspec/...

# Misspeculation-recovery fault-injection suite under the race detector:
# chaos lies/stalls/panics against live server sessions with concurrent
# query/analyze/observe traffic, the observe-equivalence and panic-
# isolation tests, the quarantine/invalidation stress tests, and the
# recovery package's own suite.
chaos:
	$(GO) test -race -count=1 ./internal/recovery/...
	$(GO) test -race -count=1 ./internal/core/ -run 'Quarantine|Invalidate|Revok'
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestObserve|TestModulePanic|TestHandlerPanic|TestChaos|TestNewHTTPServer'

# Speculative-parallel runtime suite under the race detector: chunked
# DOALL execution against journaled memory views, commit-order
# validation, the abort-guard regression test (disabled commit guard
# must corrupt results), and the 8-worker chaos stress tests that force
# misspeculation and require byte-equal convergence to serial.
runtime:
	$(GO) test -race -count=1 ./internal/runtime/...

# Fleet-mode gate under the race detector: the distributed cache tier's
# own suite, the server's fleet tests (cross-instance remote hits,
# fleet-wide quarantine invalidation with the guaranteed-miss proof), and
# the router suite (broadcast consensus, sharded-read byte-identity vs a
# single cold instance, backend loss + live-set catch-up rejoin) — then a
# fleet byte-identity oracle sweep: generated programs served through
# router + 2 peer backends must byte-equal a single instance, serially
# and under concurrent fire.
fleet:
	$(GO) test -race -count=1 ./internal/fleet/...
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestFleet|TestRouter'
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -fleet

# Elasticity gate under the race detector: live membership change. The
# fleet tier's own suite (live peer add/remove, fail-open peer timeouts,
# ring bounded-movement property), the membership chaos suite (joiner
# killed mid-stream rolls back, old owner killed mid-drain degrades to
# 503s, double-join and leave-during-join are refused, dead-member leave
# never wedges, byte-identity and durable membership after a join, a
# violation observed mid-join reaches the joiner), the
# prober-backoff test, the loadgen membership schedule (live join/leave
# mid-saturation must not change the deterministic digest) — then a
# 25-seed live-membership oracle sweep: join and leave under concurrent
# fire, every answer byte-compared against the static fleet, with the
# joiner required to serve warm hits from its streamed segments.
elastic:
	$(GO) test -race -count=1 ./internal/fleet/...
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestElastic|TestRouterProbeBackoff'
	$(GO) test -race -count=1 ./internal/loadgen/ -run 'TestSaturationMembership'
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -elastic

# Loadgen smoke: the generator's own suite, then the CLI twice with one
# seed against fresh in-process servers — the deterministic sections
# (request mix, schedule digest, order-independent answer digest) must be
# byte-identical across runs and match the pinned literals (same pins as
# TestLoadgenDeterministicCounters) — then the 1/2/4-instance saturation
# sweep, which exits non-zero if any fleet size serves a deterministic
# section different from single-instance.
LOADGEN_ARGS ?= -rate 1500 -requests 80 -seed 42 -query-frac 0.6 -deadline-frac 0.15
LOADGEN_PIN  ?= requests=80 queries=46 analyzes=34 deadlined=13 samples=67
loadgen:
	$(GO) test -count=1 ./internal/loadgen/...
	$(GO) run ./cmd/scaf-loadgen $(LOADGEN_ARGS) -json LOADGEN.1.json | grep '^deterministic:' > LOADGEN.1.txt
	$(GO) run ./cmd/scaf-loadgen $(LOADGEN_ARGS) -json LOADGEN.2.json | grep '^deterministic:' > LOADGEN.2.txt
	diff LOADGEN.1.txt LOADGEN.2.txt
	grep -q '$(LOADGEN_PIN)' LOADGEN.1.txt || { \
		echo "loadgen: deterministic counters drifted from the pin:"; cat LOADGEN.1.txt; exit 1; }
	$(GO) run ./cmd/scaf-loadgen -saturate -sizes 1,2,4 $(LOADGEN_ARGS) -json LOADGEN.saturation.json

# Persistence gate under the race detector: the snapshot codec's own
# suite (prefix property, inner checksums, revoked-journal semantics,
# snapshot-during-drain stress), the server warm-restart suite (byte-
# identical warm boots, a restart straddling an /observe quarantine with
# the physical-miss proof, journal-blocked resurrection after a crash,
# idempotent shutdown, periodic snapshots, router live-set persistence),
# the tier Close regressions — then a 25-seed warm-restart oracle sweep
# and a 30s corruption-fuzz smoke over the committed corpus.
persist:
	$(GO) test -race -count=1 ./internal/persist/...
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestServerWarmRestart|TestServerRestartStraddling|TestRevokedJournal|TestServerShutdownIdempotent|TestServerPeriodicSnapshot|TestRouterPersist|TestRouterCloseConcurrent'
	$(GO) test -race -count=1 ./internal/fleet/ -run 'TestTierClose'
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -persist
	$(GO) test ./internal/persist/ -run '^$$' -fuzz '^FuzzSnapshotCorruption$$' -fuzztime 30s

# Wall-clock comparison of serial vs parallel suite analysis. Needs
# GOMAXPROCS >= 4 to show a speedup.
bench:
	$(GO) test ./internal/bench/ -run '^$$' -bench 'BenchmarkSuiteSerial|BenchmarkSuiteParallel' -benchtime 3x

# Machine-readable per-benchmark report plus one traced SCAF analysis.
# The trace run doubles as a smoke test: scaf-bench exits non-zero if the
# JSONL event totals do not reconcile with the orchestration counters.
BENCH_JSON_ARGS ?= -bench 181.mcf
bench-json:
	$(GO) run ./cmd/scaf-bench $(BENCH_JSON_ARGS) -fig 8 \
		-json BENCH.json -trace trace.jsonl -trace-dot trace.dot

# Bench-regression gate. The committed baseline pins the answer
# distribution (%NoDep, query counts) and the deterministic p50 per-query
# work (module evals — machine-independent, so the gate is stable on any
# CI host; the baseline runs serially to keep sample collection exact).
# bench-check fails on any answer drift or a >20% p50 work regression.
# -execute adds the speculative-runtime pass: each gate benchmark is run
# under its SCAF plans and the deterministic commit/abort counters are
# pinned exactly (183.equake is in the set because it actually
# speculates — 1 DOALL loop — so those counters are non-vacuous).
BENCH_GATE_ARGS ?= -bench 129.compress,181.mcf,183.equake,462.libquantum -parallel 1 -fig 8 -execute
BENCH_BASELINE  ?= results/bench-baseline.json

# Regeneration flow: after an INTENTIONAL change to answers or query
# work (new module, batching/ordering change, gate-benchmark edit), run
# `make bench-baseline`, eyeball the diff against the old baseline —
# %NoDep and top_queries should only move if the change means them to —
# and commit the regenerated file together with the change that caused
# it. bench-check failing on an unintentional diff is the gate working.
bench-baseline:
	$(GO) run ./cmd/scaf-bench $(BENCH_GATE_ARGS) -json $(BENCH_BASELINE)

bench-check:
	$(GO) run ./cmd/scaf-bench $(BENCH_GATE_ARGS) -json BENCH.fresh.json
	$(GO) run ./cmd/scaf-benchdiff $(BENCH_BASELINE) BENCH.fresh.json

# Allocation gates. Both benchmarks' allocs/op are exact and machine-
# independent, so each ceiling below is a hard pin, not a tolerance band.
# Raise one only with a justification in the commit that does.
#
# BenchmarkTopQuery times one top-level mod-ref query on a warm
# orchestrator — the unit the serving layer issues millions of times
# (seed was 64 allocs/op; interning + pooling brought it to 16).
#
# BenchmarkProfiling is one session create's compile + profiling run of
# 129.compress (scaf.Load). The bare interpreter run alone makes ~24.5k
# allocations, the floor no profiler can go under; the dense profilers
# add ~0.2k and compilation ~1.5k, for 26204 (it was 237k while every
# access went through per-access maps and the memory-dependence profiler
# ran at every create).
BENCH_MEM_MAX_ALLOCS ?= 24
BENCH_MEM_MAX_PROFILING_ALLOCS ?= 26500
bench-mem:
	$(GO) test ./internal/bench/ -run '^$$' -bench '^BenchmarkTopQuery$$' \
		-benchmem -benchtime 2000x | tee BENCH.mem.txt
	$(GO) test . -run '^$$' -bench '^BenchmarkProfiling$$' \
		-benchmem -benchtime 10x | tee -a BENCH.mem.txt
	@check() { \
		allocs=$$(awk -v b="^$$1[^A-Za-z]" '$$0 ~ b {print $$(NF-1)}' BENCH.mem.txt); \
		if [ -z "$$allocs" ]; then echo "bench-mem: no $$1 result"; exit 1; fi; \
		if [ "$$allocs" -gt "$$2" ]; then \
			echo "bench-mem: $$1 allocs/op = $$allocs, above the $$2 ceiling"; exit 1; \
		fi; \
		echo "bench-mem: $$1 allocs/op = $$allocs (ceiling $$2)"; \
	}; \
	check BenchmarkTopQuery $(BENCH_MEM_MAX_ALLOCS) && \
	check BenchmarkProfiling $(BENCH_MEM_MAX_PROFILING_ALLOCS)

# Differential-testing oracle sweep (the CI gate): soundness,
# monotonicity, serial/parallel/shared-cache/server answer drift,
# metamorphic transform stability, and misspeculation-recovery
# equivalence over generated programs. Failures are ddmin-shrunk into
# self-contained reproducers under ORACLE_OUT.
ORACLE_SEEDS ?= 200
ORACLE_START ?= 1
ORACLE_OUT   ?= testdata/repros

oracle:
	$(GO) run ./cmd/scaf-oracle -seeds $(ORACLE_SEEDS) -start $(ORACLE_START) -shrink -out $(ORACLE_OUT)

clean:
	$(GO) clean ./...
