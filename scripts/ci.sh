#!/usr/bin/env sh
# CI gate: formatting, vet, build, and the full test suite under the race
# detector. The race run matters here — the par layer fans work out across
# goroutines in most pipeline stages, and the determinism tests exercise
# those paths at several worker counts.
set -eu

cd "$(dirname "$0")/.."

# gate PKG TEST... runs the named tests under the race detector. A -run
# pattern that matches nothing passes silently, so every name is first
# checked against `go test -list` and a missing one — a test renamed or
# deleted without updating its gate — fails the build.
gate() {
    pkg=$1
    shift
    pattern=$(printf '%s|' "$@")
    pattern="^(${pattern%|})\$"
    listed=$(go test -list "$pattern" "$pkg")
    for name in "$@"; do
        if ! printf '%s\n' "$listed" | grep -qx "$name"; then
            echo "gate: $pkg has no test named $name" >&2
            exit 1
        fi
    done
    go test -race -run "$pattern" "$pkg"
}

# fuzz PKG TARGET runs one fuzz target for a short fixed time, after the
# same existence check as gate: -fuzz with a pattern that matches
# nothing passes silently.
fuzz() {
    pkg=$1
    name=$2
    if ! go test -list "^${name}\$" "$pkg" | grep -qx "$name"; then
        echo "fuzz: $pkg has no fuzz target named $name" >&2
        exit 1
    fi
    go test -run '^$' -fuzz "^${name}\$" -fuzztime 10s "$pkg"
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== tvdp-lint (invariant gate) =="
# The in-tree analyzers guard what vet and -race cannot: the store's
# six-lock acquisition order, the pipeline determinism contract, the
# WAL-frames-go-through-the-committer rule, discarded Close/Sync errors
# in the durability layers, the request-lifecycle context contract, the
# guardedby/requires lock annotations, goroutine join paths, and the
# temp+rename+dir-fsync install discipline. A failure here means a
# load-bearing invariant broke — read the finding's fix hint, don't
# reach for nolint.
if ! go run ./cmd/tvdp-lint ./...; then
    echo "tvdp-lint: a platform invariant broke (lock order / determinism / WAL path / error discard / ctx flow / guarded fields / goroutine lifecycle / fsync order)" >&2
    exit 1
fi
# The analyzers themselves must still detect violations: each fixture
# package is a known-bad corpus, so a clean exit on one means the
# analyzer went blind.
for fixture in lockorder determinism walpath errdiscard ctxflow nolint sqrtscan guardedby golifecycle fsyncorder; do
    if go run ./cmd/tvdp-lint "./internal/lint/testdata/$fixture" >/dev/null 2>&1; then
        echo "tvdp-lint: fixture $fixture produced no findings — analyzer regression" >&2
        exit 1
    fi
done

echo "== go build =="
go build ./...

echo "== concurrent serving gate (race) =="
# The decomposed-lock store and group-commit WAL are only correct if the
# mixed-workload and HTTP stress tests are race-clean: a failure here
# should read as "serving concurrency broke", not as a generic suite
# failure.
gate ./internal/store TestConcurrentMixedWorkload TestGroupCommitBatching TestImageIDsSortedAcrossDeletesAndReplay TestGetImageMutationIsolation TestCloseUnblocksAndFailsMutations
gate ./internal/api TestConcurrentServingStress

echo "== read-path cache + admission gate (race) =="
# The result cache's singleflight and generation-stamped invalidation,
# and the token-bucket admission filter, are shared mutable state on the
# hottest path: their tests must stay race-clean, and a failure here
# should read as "read-path caching broke", not as a generic suite
# failure.
gate ./internal/query TestCacheHitThenWriteInvalidates TestCacheSingleflightShare TestCacheSingleflightLeaderErrorNotShared TestCacheConcurrentIdentical TestCacheLRUBound TestCacheFlightMutationIsolation TestCanonicalKeyDistinguishesQueries
gate ./internal/api TestAdmissionSheds429 TestAdmissionConcurrent TestAdmissionDisabledByDefault TestSearchDimMismatchIs400

echo "== shard fan-out gate (race) =="
# The scatter-gather coordinator is shared mutable state on every search:
# per-shard context slicing, cancel-on-error, deterministic top-k merge,
# and the global ID allocator must stay race-clean and shard-count
# invariant. A failure here should read as "sharding broke", not as a
# generic suite failure.
gate ./internal/shard TestShardCountInvariance TestFanOutShardError TestFanOutCancelNoLeak TestShardCountMismatch TestClassificationReplication TestGenerationComposes

echo "== segment engine gate (race) =="
# The segmented storage engine's moving parts — freeze-swap flush,
# background compaction, WAL-tail recovery, the one-way legacy-snapshot
# migration, and query-surface equivalence with a memory-only store —
# must stay race-clean.
# The exhaustive kill-at-every-byte sweeps run in the full race suite
# below; this gate is the fast, named subset so a failure here reads as
# "segment engine broke", not as a generic suite failure.
gate ./internal/store TestSegmentFlushRecoverRoundtrip TestSegmentCompaction TestSegmentTombstones TestSegmentWALTailRecovery TestSegmentBackgroundFlush TestLegacySnapshotMigration TestLegacyWALAheadOfSnapshot TestCorruptSnapshotSurfacesError TestEngineEquivalence TestGenerationMovesOnEveryWrite TestWALSyncModesRoundTrip TestSegmentV1Compatibility TestPackedPixelSizePin

echo "== crash-recovery property tests (race) =="
# Torn-write recovery is its own gate: the kill-at-every-offset sweep of
# the live log, the legacy wal.gob every-offset migration sweep, the
# stale-generation and failed-migration cases, and the reopen-cycle
# regression must pass under the race detector on every build, and a
# failure here should read as "durability broke", not as a generic suite
# failure.
gate ./internal/store TestKillAtEveryOffset TestSnapshotPlusWALOffsetSweep TestSnapshotCrashDiscardsStaleWAL TestFailedMigrationLeavesLegacyBytes TestReopenMutateCycles TestFaultInjectedTornWrites TestBitFlipSurfacesCorruption TestLegacyWALMigration

echo "== decoder fuzzing =="
# Recovery decodes WAL frames and segments straight off the disk. Each
# target replays its committed seed corpus (both pixel shapes) and then
# explores for a fixed budget; a panic, or a well-formed frame the walker
# neither applies nor rejects, fails the build and leaves the crasher
# under internal/store/testdata/fuzz for replay.
fuzz ./internal/store FuzzWALFrame
fuzz ./internal/store FuzzSegment

echo "== ingest pipeline gate (race) =="
# The streaming ingestion tier is staged concurrency end to end:
# partitioned consumer-group workers, slot-token admission that sheds
# before persist, ack-at-WAL-commit, and the recovery sweep that
# re-drives the crash window between persist-ack and index insert. All
# of it must stay race-clean, and a failure here should read as
# "ingestion pipeline broke", not as a generic suite failure.
gate ./internal/ingest TestAckPrecedesExtraction TestBackpressureShedsBeforePersist TestPerSourceOrderingPreserved TestFailedExtractionTrackedAndSweepRedrives TestRefreshHookFiresOffPath TestCloseIsIdempotentAndDrainsQueue TestPipelineOverShardCoordinator
gate ./internal/api TestStreamEndpointAcksPerRecord TestUploadBusySheds429WithRetryAfter TestUploadSyncErrorCarriesAssignedID TestVideoSyncPartialFrameFailure
gate ./internal/core TestCrashBetweenAckAndIndexSweepRedrives TestReopenAfterCleanCloseSweepsNothing

echo "== graceful shutdown gate (race) =="
# The request-lifecycle contract under the race detector: Serve must stop
# accepting on cancellation, drain in-flight uploads, and leave the store
# reopenable with every acknowledged write intact. Shutdown races the
# drain against live handlers and the committer quiesce, so this gate is
# race-enabled and should read as "graceful shutdown broke" on failure.
gate ./internal/core TestServeStopsOnCancel TestServeGracefulShutdownDrainsInFlight
gate ./internal/par TestForCtxCancelNeverDeadlocks TestForCtxGrainsNeverTear

echo "== SIGTERM drain smoke =="
# The real-process twin of the gate above: SIGTERM a loaded tvdp-server
# -dir, require exit 0 with the shutdown epilogue logged, then reopen the
# same directory and require the full corpus back (the post-drain flush
# makes the reopen replay-free). In-flight drain is covered by the race
# test; this smoke pins the process wiring (signal → drain → flush →
# close → exit code).
drain_dir=$(mktemp -d)
drain_port=$((20000 + $$ % 10000))
go build -o "$drain_dir/tvdp-server" ./cmd/tvdp-server
mkdir -p "$drain_dir/data"
"$drain_dir/tvdp-server" -addr "127.0.0.1:$drain_port" -dir "$drain_dir/data" -demo 24 -seed 7 >"$drain_dir/run1.log" 2>&1 &
srv_pid=$!
ready=0
i=0
while [ "$i" -lt 300 ]; do
    if grep -q "listening on" "$drain_dir/run1.log"; then ready=1; break; fi
    i=$((i + 1))
    sleep 0.2
done
if [ "$ready" -ne 1 ]; then
    echo "tvdp-server never became ready" >&2
    cat "$drain_dir/run1.log" >&2
    kill "$srv_pid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$srv_pid"
if ! wait "$srv_pid"; then
    echo "tvdp-server did not exit 0 on SIGTERM" >&2
    cat "$drain_dir/run1.log" >&2
    exit 1
fi
grep -q "shutdown complete" "$drain_dir/run1.log" || {
    echo "tvdp-server exited without the graceful-shutdown epilogue" >&2
    cat "$drain_dir/run1.log" >&2
    exit 1
}
# Reopen: the seeded corpus must be back in full, from the segments alone.
"$drain_dir/tvdp-server" -addr "127.0.0.1:$drain_port" -dir "$drain_dir/data" >"$drain_dir/run2.log" 2>&1 &
srv_pid=$!
ready=0
i=0
while [ "$i" -lt 300 ]; do
    if grep -q "listening on" "$drain_dir/run2.log"; then ready=1; break; fi
    i=$((i + 1))
    sleep 0.2
done
if [ "$ready" -ne 1 ]; then
    echo "tvdp-server failed to reopen after graceful shutdown" >&2
    cat "$drain_dir/run2.log" >&2
    kill "$srv_pid" 2>/dev/null || true
    exit 1
fi
grep -q "platform ready: 24 images" "$drain_dir/run2.log" || {
    echo "reopened store lost data across graceful shutdown" >&2
    cat "$drain_dir/run2.log" >&2
    kill "$srv_pid" 2>/dev/null || true
    exit 1
}
kill -TERM "$srv_pid"
wait "$srv_pid" || { echo "reopened tvdp-server did not exit 0 on SIGTERM" >&2; exit 1; }
rm -rf "$drain_dir"

echo "== go test -race =="
go test -race ./...

echo "== serving bench smoke =="
# A short tvdp-bench -figure serving run must produce a well-formed
# BENCH_serving.json (the perf-trajectory artifact); throughput numbers
# from a 300ms window are noise, so only the report shape is checked.
bench_out=$(mktemp -d)
trap 'rm -rf "$bench_out"' EXIT
go run ./cmd/tvdp-bench -figure serving -duration 300ms -clients 4 -preload 16 -out "$bench_out/BENCH_serving.json"
for key in '"figure": "serving"' '"baseline_global_mutex"' '"concurrent"' '"ops_per_sec"' '"speedup_x"' '"p99_ms"' '"fsyncs_per_write"'; do
    if ! grep -q "$key" "$bench_out/BENCH_serving.json"; then
        echo "BENCH_serving.json missing $key" >&2
        exit 1
    fi
done

echo "== readpath bench smoke =="
# A reduced tvdp-bench -figure readpath run must produce a well-formed
# BENCH_readpath.json. Throughput from a tiny timing store is noise, so
# only the report shape is checked — but the quality numbers are real:
# the run itself fails the recall/ordering fields only via the committed
# test suite (TestRunReadpathSmoke), not here.
go run ./cmd/tvdp-bench -figure readpath -scale smoke -timing-n 1500 -timing-queries 24 -out "$bench_out/BENCH_readpath.json"
for key in '"figure": "readpath"' '"quantized"' '"cached"' '"recall_at_k"' '"fig6_ordering_preserved"' '"ops_per_sec"' '"allocs_per_op"' '"quant_speedup_x"'; do
    if ! grep -q "$key" "$bench_out/BENCH_readpath.json"; then
        echo "BENCH_readpath.json missing $key" >&2
        exit 1
    fi
done

echo "== sharding bench smoke =="
# A reduced tvdp-bench -figure sharding run must produce a well-formed
# BENCH_sharding.json. Scaling numbers from a 200ms window are noise, so
# only the report shape is checked — except topk_invariant, which is a
# correctness bit (bit-identical merged results at every shard count)
# and must be true at any scale.
go run ./cmd/tvdp-bench -figure sharding -duration 200ms -clients 4 -preload 64 -out "$bench_out/BENCH_sharding.json"
for key in '"figure": "sharding"' '"shards": 1' '"shards": 8' '"ops_per_sec"' '"speedup_x"' '"p99_ms"' '"topk_invariant": true'; do
    if ! grep -q "$key" "$bench_out/BENCH_sharding.json"; then
        echo "BENCH_sharding.json missing $key" >&2
        exit 1
    fi
done

echo "== persistence bench smoke =="
# A reduced tvdp-bench -figure persistence run must produce a well-formed
# BENCH_persistence.json. Stall numbers from a 300ms window on a small
# corpus are noise, so only the report shape is checked — the committed
# artifact is regenerated at full scale when the engine changes.
go run ./cmd/tvdp-bench -figure persistence -duration 300ms -clients 4 -preload 64 -out "$bench_out/BENCH_persistence.json"
for key in '"figure": "persistence"' '"segment"' '"max_stall_ms"' '"flushes"'; do
    if ! grep -q "$key" "$bench_out/BENCH_persistence.json"; then
        echo "BENCH_persistence.json missing $key" >&2
        exit 1
    fi
done

echo "== ingest bench smoke =="
# A reduced tvdp-bench -figure ingest run must produce a well-formed
# BENCH_ingest.json. Ack latencies from a tiny unpaced run are noise, so
# only the report shape is checked — the committed artifact is
# regenerated at full scale when the pipeline changes. recall_at_k is
# checked as a key only; its value is pinned by the package tests.
go run ./cmd/tvdp-bench -figure ingest -records 48 -bow-vocab 8 -clients 2 -rate -1 -out "$bench_out/BENCH_ingest.json"
for key in '"figure": "ingest"' '"inline"' '"streaming"' '"ack_p50_ms"' '"ack_p99_ms"' '"sheds"' '"recall_at_k"' '"ack_p99_improvement_x"' '"recall_delta"'; do
    if ! grep -q "$key" "$bench_out/BENCH_ingest.json"; then
        echo "BENCH_ingest.json missing $key" >&2
        exit 1
    fi
done

echo "CI OK"
