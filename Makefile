GO ?= go

.PHONY: ci fmt build vet test race benchcheck bench bench-telemetry tracegate chaosgate obsgate sigbench shardgate profgate rtbench rtbench-smoke crossbuild

ci: fmt vet build test race benchcheck tracegate chaosgate obsgate sigbench shardgate profgate rtbench-smoke crossbuild

# Every .go file is gofmt-clean; the listing names the offenders.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The second line re-runs the engine's own tests at 1, 2 and 4 Ps: a
# proc is a coroutine resumed by whichever goroutine claims its shard's
# window, and the shard barrier spins, yields and parks, so both must
# hold with fewer Ps than workers and with more.
race:
	$(GO) test -race ./...
	$(GO) test -count 1 -race -cpu 1,2,4 ./internal/sim/

# Compile-and-smoke every benchmark (single iteration) so ci catches
# bench-only build or runtime breakage without paying measurement time.
benchcheck:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Full measurement run: every benchmark three times, aggregated to
# min/median per metric as machine-readable JSON (see README for the
# BENCH_*.json format). Since PR 7 the report lands in BENCH_PR7.json —
# it now carries the sharded storm's sim-calls/s vs worker-count series
# and the gomaxprocs stamp — while BENCH_PR5.json stays frozen as the
# control-plane baseline sigbench diffs against. BenchmarkScheduleRun's
# 0 allocs/op steady state is gated separately by
# TestScheduleRunSteadyStateAllocs in `make test`, a warm Engine.Go at
# 2 allocs by TestProcSpawnSteadyStateAllocs, pooled coroutines released
# at Shutdown by TestShutdownReleasesPooledCoroutines; the signaling
# path's zero-alloc call cycle by TestSteadyStateCallAllocs.
bench:
	$(GO) test -run '^$$' -bench . -count 3 ./... | $(GO) run ./cmd/benchjson -o BENCH_PR7.json

# The control-plane throughput gate: re-measure the call-storm
# benchmark and compare with benchjson -diff. Two verdicts against two
# baselines: allocs/op is deterministic run to run and across machines,
# so it gates tight (2%) against the frozen PR 5 fast-path baseline and
# catches any pooling or codec regression; sim-calls/s is wall clock on
# whatever machine ci landed on — containers differ in CPU class and
# shared vCPUs throttle burst credits late in a run — so it diffs
# against the most recently committed full report (BENCH_PR7.json,
# measured on the current container class; its gomaxprocs stamp lets
# -diff flag parallelism mismatches) with a wide gate (30%), sized to
# catch structural regressions (a reintroduced linear scan costs 2.4x
# here) while riding out throttling. min-of-5 on the new side keeps
# scheduler noise out of the verdict.
sigbench:
	$(GO) test -run '^$$' -bench BenchmarkSimulatedCallsPerSecond -count 5 ./internal/signaling/ | $(GO) run ./cmd/benchjson -o /tmp/sigbench.json
	$(GO) run ./cmd/benchjson -diff -bench 'SimulatedCallsPerSecond$$' -metric 'allocs/op' -gate 2 BENCH_PR5.json /tmp/sigbench.json
	$(GO) run ./cmd/benchjson -diff -bench 'SimulatedCallsPerSecond$$' -metric 'sim-calls/s' -gate 30 BENCH_PR7.json /tmp/sigbench.json

# The causal-tracing gate: the overhead benchmark self-asserts that a
# disabled collector call site stays under 5 ns (and the unsampled path
# at 0 allocs/op, via TestUnsampledPathAllocs in `make test`), then the
# E4 storm's trace export is schema-checked as Chrome trace-event JSON
# and run twice to prove same-seed byte determinism.
tracegate:
	$(GO) test -run '^$$' -bench BenchmarkTraceOverhead/disabled -benchtime 2000000x ./internal/trace/
	$(GO) run ./cmd/tracegen | $(GO) run ./cmd/tracecheck -v
	$(GO) run ./cmd/tracegen > /tmp/tracegate-a.json && $(GO) run ./cmd/tracegen > /tmp/tracegate-b.json && cmp /tmp/tracegate-a.json /tmp/tracegate-b.json

# The fault-injection gate: a disabled fault hook (nil plane pointer)
# must stay under 5 ns (asserted inside the benchmark) so the hooks
# compiled into every transport cannot skew clean-path numbers, then
# the chaos soak — call storms under the seeded fault cocktail with two
# mid-storm sighost crashes — is run twice and byte-diffed, guarding
# the claim that the fault schedule is part of the deterministic
# replay. (The zero-probability golden-preservation side is
# TestZeroProbPlaneInvisibleEndToEnd in `make test`.)
chaosgate:
	$(GO) test -run '^$$' -bench BenchmarkFaultsOverhead/disabled -benchtime 2000000x ./internal/faults/
	$(GO) run ./cmd/chaosgen > /tmp/chaosgate-a.txt && $(GO) run ./cmd/chaosgen > /tmp/chaosgate-b.txt && cmp /tmp/chaosgate-a.txt /tmp/chaosgate-b.txt

# The continuous-telemetry gate: a disabled scrape hook (nil Peak
# pointer) must stay under 5 ns (asserted inside the benchmark) so the
# hooks compiled into the switch hot path cannot skew clean-path
# numbers, then the E4 storm's time-series export is run twice and
# byte-diffed, guarding the claim that the scraped series are part of
# the deterministic replay. (Steady-state zero allocation is
# TestTickSteadyStateDoesNotAllocate in `make test`.)
obsgate:
	$(GO) test -run '^$$' -bench BenchmarkTSeriesOverhead/disabled -benchtime 2000000x ./internal/obs/tseries/
	$(GO) run ./cmd/obsgen > /tmp/obsgate-a.json && $(GO) run ./cmd/obsgen > /tmp/obsgate-b.json && cmp /tmp/obsgate-a.json /tmp/obsgate-b.json

# The sharded-engine gate (PR 7): the multi-domain E4 storm must
# produce byte-identical history at workers=1 (the sequential golden
# reference) and workers=4 — both clean and under the chaos cocktail —
# the cross-shard post path must stay allocation-free
# (TestCrossShardPostZeroAlloc), and the window barrier must stay live
# with more workers than Ps, put idle helpers to sleep, and join them at
# Close (TestShardGroupWorkersAboveGOMAXPROCS, ...IdleHelpersPark,
# ...CloseNoLeak). The end-to-end half re-runs obsgen's sharded export
# at both worker counts and byte-diffs. The ≥2.5x
# 4-worker speedup (TestShardedScalingGate) asserts only on machines
# with GOMAXPROCS >= 4 and self-skips elsewhere; the determinism checks
# run everywhere.
shardgate:
	$(GO) test -count 1 -run 'TestCrossShardPostZeroAlloc|TestOneShardGroupMatchesPlainEngine|TestShardGroup' ./internal/sim/
	$(GO) test -count 1 -run 'TestShardedStormDeterministicAcrossWorkers|TestShardedChaosDeterministicAcrossWorkers|TestShardedScalingGate' ./internal/testbed/
	$(GO) run ./cmd/obsgen -shards 4 -workers 1 -calls 24 -frames 2 -run 8s > /tmp/shardgate-w1.json
	$(GO) run ./cmd/obsgen -shards 4 -workers 4 -calls 24 -frames 2 -run 8s > /tmp/shardgate-w4.json
	cmp /tmp/shardgate-w1.json /tmp/shardgate-w4.json

# The execution-profiler gate (PR 8): a disabled profiler hook (nil
# EngineProf/GroupProf pointer) must stay under 5 ns (asserted inside
# the benchmark) so the hooks compiled into the engine's exec loop and
# the shard barrier cannot skew unprofiled runs; then the profiler's
# deterministic counts export — per-shard per-label event counts,
# window/idle-skip counters, the cross-shard post/byte matrix — is
# byte-diffed at workers 1 vs 4 on the sharded E4 storm, guarding the
# contract that profiling attributes the virtual history, which worker
# scheduling never changes. (Wall-nanosecond attribution is exactly the
# part CountsText omits; Text/JSON carry it for humans.)
profgate:
	$(GO) test -run '^$$' -bench BenchmarkProfOverhead/disabled -benchtime 2000000x ./internal/prof/
	$(GO) run ./cmd/obsgen -prof -shards 4 -workers 1 -calls 24 -frames 2 -run 8s > /tmp/profgate-w1.txt
	$(GO) run ./cmd/obsgen -prof -shards 4 -workers 4 -calls 24 -frames 2 -run 8s > /tmp/profgate-w4.txt
	cmp /tmp/profgate-w1.txt /tmp/profgate-w4.txt

# The real-mode wall-clock tier (PR 10): loopback frame throughput and
# cross-daemon call-setup rate over actual UDP/TCP sockets, batched
# (sendmmsg/recvmmsg) vs per-message fallback, as BENCH-format JSON.
# Three gates:
#   - allocs: the carrier's steady-state send/recv cycle and the AAL5
#     framing path must stay at zero allocations (also enforced under
#     -race by `make race`);
#   - sys/frame ratio ≥ 2x: batching must amortize syscalls — measured
#     from the carrier's own counters, it runs ~32x (2 syscalls per
#     32-frame burst vs 2 per frame). This is the mechanism gate: on a
#     modern kernel the per-datagram loopback stack (~3 µs) dwarfs
#     syscall entry (~0.1 µs), so syscall amortization is the durable
#     claim, wall clock the noisy echo of it;
#   - frames/s ratio ≥ 1x: batched mode must never be slower on the
#     wall clock (measures ~1.2-1.3x here).
# The batched benchmarks self-skip off linux/amd64+arm64, and
# -skip-missing turns both ratio gates into no-ops there.
rtbench:
	$(GO) test -count 1 -run 'TestHotLoopAllocs|TestAAL5LinkSendAllocs' ./internal/rtnet/
	$(GO) test -run '^$$' -bench 'BenchmarkRealFrames|BenchmarkRealSetups' -count 3 ./internal/rtnet/ ./internal/signaling/ | $(GO) run ./cmd/benchjson -o BENCH_RT.json
	$(GO) run ./cmd/benchjson -ratio -a 'RealFrames/fallback' -b 'RealFrames/batched' -metric 'sys/frame' -min 2 -skip-missing BENCH_RT.json
	$(GO) run ./cmd/benchjson -ratio -a 'RealFrames/batched' -b 'RealFrames/fallback' -metric 'frames/s' -min 1 -skip-missing BENCH_RT.json

# ci's short form of the tier: same gates, fixed small iteration counts
# so it costs seconds. The wall-clock floor is relaxed to 0.8x — at
# -benchtime 300x a single scheduler hiccup moves the median — while
# the sys/frame mechanism gate keeps its full 2x floor (the counters
# are deterministic at any iteration count).
rtbench-smoke:
	$(GO) test -count 1 -run 'TestHotLoopAllocs|TestAAL5LinkSendAllocs' ./internal/rtnet/
	$(GO) test -run '^$$' -bench 'BenchmarkRealFrames' -count 2 -benchtime 300x ./internal/rtnet/ | $(GO) run ./cmd/benchjson -o /tmp/rtbench-smoke.json
	$(GO) run ./cmd/benchjson -ratio -a 'RealFrames/fallback' -b 'RealFrames/batched' -metric 'sys/frame' -min 2 -skip-missing /tmp/rtbench-smoke.json
	$(GO) run ./cmd/benchjson -ratio -a 'RealFrames/batched' -b 'RealFrames/fallback' -metric 'frames/s' -min 0.8 -skip-missing /tmp/rtbench-smoke.json

# Cross-compile check: the carrier's batched/fallback build-tag split
# must keep the tree compiling on a platform with no sendmmsg (darwin
# exercises the fallback files' constraints without needing the OS).
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...

# The telemetry cost gate: a disabled trace call site must stay under
# 5 ns (asserted inside the benchmark), and the signaling throughput
# benchmark reports sim-calls/s alongside registry-derived setup
# latency percentiles.
bench-telemetry:
	$(GO) test -run xxx -bench BenchmarkTelemetryOverhead ./internal/obs/
	$(GO) test -run xxx -bench BenchmarkSimulatedCallsPerSecond ./internal/signaling/
