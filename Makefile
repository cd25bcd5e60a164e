GO ?= go

.PHONY: tier1 fmt build vet test race race-smp determinism tcp-conformance mem-budget core-alloc tier2 stress overload-stress adversarial-smoke order-replay fuzz-smoke bench bench-smoke profile

# tier1 is the repository's gate: everything must be gofmt-clean, build,
# vet clean, and pass tests, with the race detector over the
# concurrency-heavy packages.
tier1: fmt build vet test race

# fmt fails when any Go file differs from gofmt's layout, listing them.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/stm/... \
		./internal/tcp/ ./internal/httpd/ ./internal/bufpool/ \
		./internal/kernel/

# race-smp repeats the race leg with GOMAXPROCS pinned to 4 so parallel
# dispatch (sharded kernel, epoll delivery, stealing deques, the clock's
# epoch barrier) is exercised with real preemption interleavings even on
# wide CI machines. The bench package is included since the epoch-barrier
# clock: its determinism tests now assert reproducibility under real
# parallelism rather than assuming a single-P schedule.
race-smp:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/core/... \
		./internal/kernel/ ./internal/hio/ ./internal/vclock/ \
		./internal/bench/

# determinism is the figure-reproducibility gate: each figure CLI runs
# twice at GOMAXPROCS=4 and the outputs must be byte-identical. This is
# the end-to-end check of the epoch-barrier clock — virtual-time runs
# have no host-scheduled actor left, so real parallelism must not move a
# single byte of the default (hybrid-only) figure output. The -realtime
# baseline columns are excluded by construction: kernel-thread arrival
# order at the disk follows the host scheduler.
determinism:
	GOMAXPROCS=4 $(GO) run ./cmd/fig17disk -quick > det_fig17_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig17disk -quick > det_fig17_b.tmp
	cmp det_fig17_a.tmp det_fig17_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig19web -quick > det_fig19_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig19web -quick > det_fig19_b.tmp
	cmp det_fig19_a.tmp det_fig19_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig20loss -quick > det_fig20_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig20loss -quick > det_fig20_b.tmp
	cmp det_fig20_a.tmp det_fig20_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig21adversarial -quick > det_fig21_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig21adversarial -quick > det_fig21_b.tmp
	cmp det_fig21_a.tmp det_fig21_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig22c1m -quick -det > det_fig22_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig22c1m -quick -det > det_fig22_b.tmp
	cmp det_fig22_a.tmp det_fig22_b.tmp
	rm -f det_fig17_a.tmp det_fig17_b.tmp det_fig19_a.tmp det_fig19_b.tmp \
		det_fig20_a.tmp det_fig20_b.tmp det_fig21_a.tmp det_fig21_b.tmp \
		det_fig22_a.tmp det_fig22_b.tmp
	@echo "determinism: fig17/fig19/fig20/fig21/fig22 output byte-identical across GOMAXPROCS=4 runs"

# tcp-conformance replays every packet-trace scenario against its
# committed golden twice, under the race detector at GOMAXPROCS=4: the
# traces are asserted byte-identical to the goldens, run-to-run, and
# across real parallelism — any change to retransmission order, SACK
# blocks, ACK generation, or cwnd arithmetic fails the leg with a diff.
tcp-conformance:
	GOMAXPROCS=4 $(GO) test -race -count=2 ./internal/tcp/tracecheck/

# mem-budget is the blocking per-connection memory gate: establish 16384
# parked keep-alive connections and fail if live heap per connection
# exceeds 9216 bytes (the ROADMAP's 8 KB idle-connection target plus 1 KB
# of slack for runtime noise). The elastic rings put the measured figure
# around 6.7 KB; a change that re-eagers buffer allocation — the old flat
# rings cost 137.7 KB/conn — fails here instead of in the next capacity
# experiment.
mem-budget:
	$(GO) run ./cmd/memtest -threads 1000 -conns 16384 -budget 9216

# core-alloc is the blocking fast-path allocation gate: AllocsPerRun pins
# only, no timing, so it cannot flake on machine speed. It holds the
# continuation-flattening line — fused Loop/ForN/RepeatN iterations at
# zero allocations, the cached-GET serve loop within its per-request
# budget, re-entry of the hio and tcp retry machines' read traces (ready
# or parked) at zero allocations — so a change that quietly
# re-introduces per-iteration closure or node allocation fails here, not
# in the next perf investigation.
core-alloc:
	$(GO) test -run 'Alloc' -count=1 ./internal/core/ ./internal/bench/ ./internal/httpd/ \
		./internal/hio/ ./internal/tcp/

# tier2 is the extended, non-gating suite (~30s): the randomized
# scheduler stress tests under the race detector, the seeded overload
# smoke (a 4× load burst through admission control and the circuit
# breaker, replayed for counter determinism), the seeded adversarial
# smoke (a hostile fleet whose attack mode is drawn from the seed,
# contesting a hardened slot-limited server against good clients,
# replayed for shed/reap counter determinism), a 50-fold replay of the
# clock and epoll ordering tests, plus a short fuzz smoke over every fuzz
# target. Failures print the seed to replay
# (STRESS_SEED=<seed> make stress / overload-stress / adversarial-smoke).
tier2: stress overload-stress adversarial-smoke order-replay fuzz-smoke

stress:
	$(GO) test -race -run 'Stress' -count=1 ./internal/core/

overload-stress:
	$(GO) test -race -run 'StressOverload' -count=1 -v ./internal/httpd/

adversarial-smoke:
	$(GO) test -race -run 'StressAdversarial' -count=1 -v ./internal/loadgen/

# order-replay runs the virtual clock's and the kernel's ordering and
# parallelism tests 50 times at GOMAXPROCS 1, 2 and 4, so a schedule-
# dependent failure in either shows up here before it flakes tier-1.
order-replay:
	GOMAXPROCS=1 $(GO) test -count=50 -run 'Order|Parallelism|Concurrent' ./internal/vclock/ ./internal/kernel/
	GOMAXPROCS=2 $(GO) test -count=50 -run 'Order|Parallelism|Concurrent' ./internal/vclock/ ./internal/kernel/
	GOMAXPROCS=4 $(GO) test -count=50 -run 'Order|Parallelism|Concurrent' ./internal/vclock/ ./internal/kernel/

fuzz-smoke:
	$(GO) test -run FuzzParseRequest -fuzz FuzzParseRequest -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzHeadBuffer -fuzz FuzzHeadBuffer -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzParseResponseHead -fuzz FuzzParseResponseHead -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzVecModel -fuzz FuzzVecModel -fuzztime 5s ./internal/iovec/
	$(GO) test -run FuzzVecSliceBounds -fuzz FuzzVecSliceBounds -fuzztime 5s ./internal/iovec/
	$(GO) test -run FuzzServeTranscript -fuzz FuzzServeTranscript -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzBufpoolRoundtrip -fuzz FuzzBufpoolRoundtrip -fuzztime 5s ./internal/bufpool/
	$(GO) test -run FuzzSackRanges -fuzz FuzzSackRanges -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzSegmentRoundtrip -fuzz FuzzSegmentRoundtrip -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzFusedEquivalence -fuzz FuzzFusedEquivalence -fuzztime 5s ./internal/core/

# bench is the reproducible performance harness: the quick Figure 17/19
# configurations, the full Figure 20 loss-recovery sweep, the full
# Figure 21 adversarial contest, the full Figure 22 million-connection
# capacity sweep, and the hot-path Go microbenchmarks with -benchmem,
# written as machine-readable rows to BENCH_fig17.json/BENCH_fig19.json/
# BENCH_fig20.json/BENCH_fig21.json/BENCH_fig22.json, with the
# monadic-core trampoline pair in BENCH_core.json (BENCH_LABEL tags
# the rows; -append preserves the committed trajectory — run
# `$(GO) run ./cmd/benchjson -h` for one-off layouts).
BENCH_LABEL ?= dev

bench:
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -append
	$(GO) test -run '^$$' -bench . -benchmem -count=1 ./internal/bench/

# bench-smoke is the CI-sized slice: every benchmark runs once (catching
# bit-rot), the allocation-budget pins diff allocs/op against the
# checked-in bounds, and the microbenchmark rows land in
# BENCH_smoke.json for artifact upload — the committed trajectory files
# are never rewritten.
# (-run '^$' keeps -benchtime=1x away from the testing.Benchmark-backed
# budget test, which needs a full-length run to amortize setup)
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem -count=1 ./internal/bench/
	$(GO) test -run 'Alloc' -count=1 ./internal/bench/ ./internal/httpd/ ./internal/stats/
	$(GO) run ./cmd/benchjson -micro-only -label smoke -fig19 BENCH_smoke.json -core BENCH_smoke_core.json
	$(GO) run ./cmd/fig19web -quick -scaling -workers 4 -stats > SCALING_smoke.txt
	$(GO) run ./cmd/fig19web -quick -scaling -workers 4 -stealing -stats >> SCALING_smoke.txt
	cat SCALING_smoke.txt
	@echo "— committed fig19-scaling baseline rows (BENCH_fig19.json) —"
	@awk '/^\{/{buf=""} {buf=buf $$0 "\n"} /^\}/{if (buf ~ /"fig19-scaling"/ && (buf ~ /"pr5-multicore"/ || buf ~ /"pr6-/)) printf "%s", buf}' BENCH_fig19.json

# profile captures pprof CPU/mutex/block profiles of the cached quick
# workload at 4 workers, for inspecting the contention delta of scheduler
# or kernel changes (`go tool pprof mutex.pprof`).
PROFILE_WORKERS ?= 4

profile:
	$(GO) run ./cmd/fig19web -quick -cached -workers $(PROFILE_WORKERS) \
		-cpuprofile cpu.pprof -mutexprofile mutex.pprof -blockprofile block.pprof
	@echo "wrote cpu.pprof mutex.pprof block.pprof"
