GO ?= go

.PHONY: ci fmt vet build test race benchcheck detgate golden crossbuild bench loc allocs cpuprofile pairs

ci: fmt vet build test race benchcheck detgate crossbuild

# Every .go file is gofmt-clean; the listing names the offenders.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line re-runs the engine's own tests at 1, 2 and 4 Ps: a
# proc is a coroutine resumed by whichever goroutine claims its shard's
# window, and the shard barrier spins, yields and parks, so both must
# hold with fewer Ps than workers and with more. The packages whose
# records are recycled through sim.FreeList, the one owner-local free
# list (packet records, loopback segments, watches, mbufs), ride
# along: their reuse-safety tests are the ones a stray cross-goroutine
# touch would break, and under -race a record put back twice panics.
# So do the frame
# path's chain owners, whose machines' mbuf pools and meters are plain
# fields only their engine touches and whose chains the race build
# poisons on Release, and the real carrier, whose receive pump hands handlers slices of one
# shared receive block, several per syscall when it splits a train, and
# PF_XUNET, whose Recv hands out the socket's one buffer and scribbles
# over it at the next Recv, so a caller that kept a frame reads junk. So
# do the bounded histories over sim.Ring: a tseries store has no lock,
# and its one owner ticks and reads it, a sim domain's engine or a real
# daemon's actor, to which the wall-clock ticker posts each scrape. The
# trace collector has no lock: its one
# owner is a real daemon's actor or a sim domain's engine or shard, and
# anything else reads it through that owner. So does the
# switch fabric: a boundary trunk hands pooled cell records from the
# sending shard to the receiving one under its lock, and cell runs
# take that same path one cell at a time.
# The third line repeats the client library's tests over both of its
# transports, every real-daemon test, the notify pool's own two, and the
# Env contract table over both envs with the actor's own-inbox test: the
# notify mux hands connections between goroutines; the socket readers
# only post inputs to the actor, which owns the routes, the pool, the
# notify connections, the carrier's sends and the time series, so a
# stray touch from a pump, a redial or a ticker shows here; the chaos
# calls scrape the daemons' registries off their actors while calls
# run; and a real timer fires on a runtime goroutine into a record the
# actor recycles.
# The fourth line runs the sharded storms' determinism tests at 1, 2 and
# 4 Ps: the shards are the one place where several owners run at once,
# each domain with its own collector, engine, meters and pools, so a
# record one shard touches and another reads shows here.
# TestShardedScalingGate stays off it: it times wall clock, which the
# race detector and a small box distort.
race:
	$(GO) test -race ./...
	$(GO) test -count 1 -race -cpu 1,2,4 ./internal/sim/ ./internal/memnet/ ./internal/kern/ ./internal/mbuf/ ./internal/pfxunet/ ./internal/protoatm/ ./internal/hobbit/ ./internal/rtnet/ ./internal/obs/... ./internal/trace/ ./internal/xswitch/
	$(GO) test -count 3 -race -run 'TestClient|TestReal|TestSendOnDeadIdleConnRedials|TestNotifyIdleSetIsCapped|TestEnvContract|TestActorNeverWaitsOnItself' ./internal/signaling/
	$(GO) test -count 1 -race -cpu 1,2,4 -run 'TestSharded.*Deterministic' ./internal/testbed/

# One iteration of every benchmark, so bench-only build or runtime
# breakage shows without paying measurement time.
benchcheck:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The determinism gate, one line per claim, the deterministic lines
# first so that a wall-clock failure of the last cannot hide theirs:
#  1. the trace export is schema-valid Chrome trace-event JSON;
#  2. every scenario, the chaos storm's event history and the Figure 3
#     and 4 traces print what their testdata/*.golden holds, a sharded
#     scenario at workers 1 and 4 alike (`make test` runs it too; -count
#     1 skips the cache); after a change that moves one on purpose,
#     `make golden` re-records them, and the diff of testdata/ shows
#     what moved; the fault sweep's points and known defects, and a
#     warm storm's event and dispatch counts, the two virtual-history
#     pins the sim actor's clock can move, hold too;
#  3. every number of the paper's evaluation reads inside its band, and
#     EXPERIMENTS.md's generated tables hold exactly what the claims
#     render (TestPaperClaims; `make test` runs it too);
#  4. a disabled observation hook — trace, faults, obs, tseries, prof,
#     sighost's transition hook — costs under 5 ns (each benchmark
#     asserts its own), so the hooks compiled into every hot path
#     cannot skew clean-path numbers; a wall-clock gate this tight can
#     trip on a busy machine, so the line fails only if three attempts
#     in a row do.
detgate:
	$(GO) run ./cmd/xunetsim trace | $(GO) run ./cmd/tracecheck -v
	$(GO) test -count 1 -run 'TestDetGate|TestCallStormDeterministicAcrossRuns|TestEventHistoryGolden|TestFigure[34]|TestFaultSweep|TestCallStormEvents' ./internal/testbed/ ./internal/signaling/
	$(GO) test -count 1 -run TestPaperClaims .
	for i in 1 2 3; do \
		$(GO) test -run '^$$' -bench 'Overhead/disabled' -benchtime 2000000x ./internal/trace/ ./internal/faults/ ./internal/obs/... ./internal/prof/ ./internal/signaling/ && exit 0; \
		echo "detgate: a disabled-hook gate failed (attempt $$i of 3)"; \
	done; exit 1

# Re-records every golden file from what the code prints now. Only the
# two packages that hold goldens know the -update flag, so `go test
# ./... -update` stops at the first other package.
golden:
	$(GO) test -count 1 ./internal/testbed/ ./internal/signaling/ -update

# The carrier's batched/fallback build-tag split must keep the tree
# compiling where there is no sendmmsg (darwin exercises the fallback
# files' constraints without needing the OS).
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...

# The benchmark BENCHMARK.json declares; bench/README.md explains it.
bench:
	$(GO) run ./bench

# Where a call's allocations come from, by allocating function: first
# every allocation of 200 untraced ten-call sim storms, on sim_storm_flat's
# testbed options — DESIGN.md's "Allocation ledger of a call" is that
# listing divided by 2 010 calls (the benchmark runs one warm-up
# iteration) — then the same storms with the causal tracer on, the
# testbed's default, then 2 000 real-mode setups across two loopback
# daemons (BenchmarkRealSetups/batched; divide by 2 000). Not part of
# ci: it measures, it does not gate — TestCallStormAllocs does.
ALLOCS_DIR := $(or $(TMPDIR),/tmp)/xunet-allocs
allocs:
	@mkdir -p $(ALLOCS_DIR)
	$(GO) test -c -o $(ALLOCS_DIR)/signaling.test ./internal/signaling/
	for c in untraced traced; do \
		$(ALLOCS_DIR)/signaling.test -test.run '^$$' -test.bench "BenchmarkSimulatedCallsPerSecond/^$$c\$$" -test.benchtime 200x \
			-test.memprofilerate 1 -test.memprofile $(ALLOCS_DIR)/$$c.prof && \
		$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 30 $(ALLOCS_DIR)/signaling.test $(ALLOCS_DIR)/$$c.prof || exit 1; \
	done
	$(ALLOCS_DIR)/signaling.test -test.run '^$$' -test.bench 'BenchmarkRealSetups/batched$$' -test.benchtime 2000x \
		-test.memprofilerate 1 -test.memprofile $(ALLOCS_DIR)/real.prof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 30 $(ALLOCS_DIR)/signaling.test $(ALLOCS_DIR)/real.prof

# Where a warm call's CPU goes: pprof -top of 3 000 untraced ten-call
# storms (BenchmarkSimulatedCallsPerSecond/untraced, the storm
# sim_storm_flat runs). Not part of ci: it measures, it gates nothing.
cpuprofile:
	@mkdir -p $(ALLOCS_DIR)
	$(GO) test -c -o $(ALLOCS_DIR)/signaling.test ./internal/signaling/
	$(ALLOCS_DIR)/signaling.test -test.run '^$$' -test.bench 'BenchmarkSimulatedCallsPerSecond/untraced$$' -test.benchtime 3000x \
		-test.cpuprofile $(ALLOCS_DIR)/cpu.prof
	$(GO) tool pprof -top -nodecount 40 $(ALLOCS_DIR)/signaling.test $(ALLOCS_DIR)/cpu.prof

# The code-size ledger (both checks are part of `make test` too): the
# non-test Go lines outside bench/, which may not exceed the ceiling
# recorded in TestLineCeiling, then the reachability check, which
# type-checks the module, walks from every main, init, var initializer
# and root experiment, and logs what it cannot reach in internal/, cmd/
# and examples/ (a failure unless allowlisted), the allowlist with its
# reasons and lines, the exported identifiers only their own package
# uses, and its run time.
loc:
	$(GO) test -count 1 -run 'TestLineCeiling|TestNoUnreachableCode' -v ./internal/codesize/

# Alternating pairs for a wall-clock claim: `make pairs BASE=<rev>
# W=<workload> [N=10 SEED=1 SECONDS=8]` builds ./bench at BASE (exported
# with git archive into a scratch directory, removed after the build)
# and from the working tree, both into $(PAIRS_DIR), then runs N pairs of
# `-workload W -seed SEED+i -seconds SECONDS -trace 0`, alternating which
# side runs first. It prints every run's five end-to-end metrics and its
# failed operations, then per metric each side's median [Q1–Q3], how
# many pairs the change won, the medians' gap in the metric's better
# direction against the parent's Q1–Q3 distance, and whether that meets
# the claim rule of choosing-metrics §8: at least 9 pairs in 10 won and
# a gap wider than that distance. W=all does that for every workload
# BENCHMARK.json names, one block each: a no-regression table from one
# command. Not part of ci: it measures, it gates nothing. BASE builds
# with a build cache of its own, removed with its checkout: every BASE
# is a source tree the shared cache has not seen, so building it there
# would leave a full set of compiled packages behind on each run, which
# the go command only trims once they go unused for days.
PAIRS_DIR := $(or $(TMPDIR),/tmp)/xunet-pairs
N ?= 10
SEED ?= 1
SECONDS ?= 8
PAIRS_W = $(if $(filter all,$(W)),$(shell awk '/"workloads"/ { w = 1 } /"end_to_end"/ { w = 0 } w && /"name"/ { gsub(/[",]/, "", $$2); print $$2 }' BENCHMARK.json),$(W))
pairs:
	@test -n "$(BASE)" && test -n "$(W)" || { echo "usage: make pairs BASE=<rev> W=<workload>|all [N=10 SEED=1 SECONDS=8]"; exit 1; }
	rm -rf $(PAIRS_DIR) && mkdir -p $(PAIRS_DIR)/base
	git archive $(BASE) | tar -x -C $(PAIRS_DIR)/base
	cd $(PAIRS_DIR)/base && GOCACHE=$(PAIRS_DIR)/gocache $(GO) build -o $(PAIRS_DIR)/bench.base ./bench
	rm -rf $(PAIRS_DIR)/base $(PAIRS_DIR)/gocache
	$(GO) build -o $(PAIRS_DIR)/bench.change ./bench
	@for w in $(PAIRS_W); do \
	echo "== $$w"; \
	printf '%-6s %5s %9s %11s %13s %11s %8s %6s\n' side seed setup_s ops_per_s cpu_us_per_op peak_rss_mb ok_ratio failed; \
	for i in $$(seq 0 $$(($(N) - 1))); do \
		seed=$$(($(SEED) + i)); order="base change"; \
		if [ $$((i % 2)) -eq 1 ]; then order="change base"; fi; \
		for side in $$order; do \
			res=$$($(PAIRS_DIR)/bench.$$side -workload $$w -seed $$seed -seconds $(SECONDS) -trace 0 | tail -n 1) || exit 1; \
			row="$$side $$seed"; \
			for m in setup_s ops_per_s cpu_us_per_op peak_rss_mb ok_ratio; do \
				row="$$row $$(echo "$$res" | grep -o "\"$$m\":{\"value\":[^,}]*" | sed 's/.*://')"; \
			done; \
			echo "$$row $$(echo "$$res" | grep -o '"failed":[0-9]*' | sed 's/.*://')"; \
		done; \
	done | tee $(PAIRS_DIR)/runs.$$w | awk '{ printf "%-6s %5s %9.4f %11.1f %13.2f %11.2f %8.6f %6s\n", $$1, $$2, $$3, $$4, $$5, $$6, $$7, $$8 }'; \
	awk 'function q(a, n, p,   pos, lo) { pos = p * (n - 1); lo = int(pos); return lo + 1 < n ? a[lo] + (a[lo + 1] - a[lo]) * (pos - lo) : a[lo] } \
	function sorted(src, n, dst,   i, j, t) { for (i = 0; i < n; i++) { t = src[i]; for (j = i; j > 0 && dst[j - 1] > t; j--) dst[j] = dst[j - 1]; dst[j] = t } } \
	{ n[$$1]++; for (c = 3; c <= 7; c++) v[$$1, c, $$2] = $$c; seeds[$$2] = 1 } \
	END { split("setup_s ops_per_s cpu_us_per_op peak_rss_mb ok_ratio", name, " "); split("-1 1 -1 -1 1", dir, " "); \
		for (c = 3; c <= 7; c++) { \
			k = 0; wins = 0; \
			for (s in seeds) { b[k] = v["base", c, s]; x[k] = v["change", c, s]; k++; if ((x[k - 1] - b[k - 1]) * dir[c - 2] > 0) wins++ } \
			sorted(b, k, sb); sorted(x, k, sx); \
			gap = (q(sx, k, .5) - q(sb, k, .5)) * dir[c - 2]; iqr = q(sb, k, .75) - q(sb, k, .25); \
			printf "%-14s base %.6g [%.6g–%.6g]  change %.6g [%.6g–%.6g]  change won %d/%d, gap %.6g vs parent IQR %.6g: %s\n", name[c - 2], q(sb, k, .5), q(sb, k, .25), q(sb, k, .75), q(sx, k, .5), q(sx, k, .25), q(sx, k, .75), wins, k, gap, iqr, (10 * wins >= 9 * k && gap > iqr) ? "claim met" : "claim not met" \
		} }' $(PAIRS_DIR)/runs.$$w; \
	done
