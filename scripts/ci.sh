#!/bin/sh
# ci.sh — the repo's gate, runnable anywhere the Go toolchain exists:
#
#   ./scripts/ci.sh          # every stage below, in order
#   ./scripts/ci.sh -short   # same, with -short passed to the suite-wide test run
#
# Stages: go vet; gofmt -l; go build; optipartlint (its three rules, the
# compiler-verified //alloc:zero contracts among them, then its
# -listignores audit); a 10 s fuzz smoke each of internal/sfc's
# FuzzRankWithSpan, FuzzSpanBox, FuzzRankOrder and
# FuzzCompareConsistent, internal/net's FuzzDecodeFrame and
# FuzzDecodeBodies, internal/service's FuzzDigestCanonicalization,
# FuzzServiceCanonicalHit, FuzzServeConn and FuzzServiceDo, internal/ckpt's
# FuzzDecodeSnapshot, and
# internal/partition's FuzzRepartitionerStep;
# go test -race -shuffle=on ./...; dedicated race passes for par/comm/psort
# (with the Repartitioner's tests), net, lint, and service; the mutant ledger (scripts/mutants.sh: under each
# scripts/mutants/*.patch its named test must fail); and the benchmark
# spine's quick run with its exact metrics compared against
# scripts/spine_quick_baseline.json and its partition.step_allocs required
# to be 0.
#
# Every check that runs a program for its behaviour is a Go test inside the
# suite-wide pass: cmd/optipartd's process tests start each optipartd mode
# (local, root and workers, both -launch drivers, -serve) as a process,
# internal/experiments' TestRepartFullAcrossWidths runs the full repart
# campaign at two pool widths, and TestChaosManySeeds the chaos harness on
# five seeds.
#
# The comm runtime is a shared-memory stand-in for MPI: every collective is
# goroutines racing through a barrier, which is exactly the code the race
# detector should be standing guard over — so the suite always runs with
# -race here.
set -eu
cd "$(dirname "$0")/.."

# The spine stage writes its reports and logs under one work directory,
# removed on any exit.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> optipartlint ./... (three rules, //alloc:zero contracts included)"
# alloczero re-runs escape analysis and fails if any heap allocation lands
# inside an //alloc:zero function without a //lint:ignore alloczero waiver.
# Its -m parser fails closed on toolchain drift, so a Go upgrade that
# rewords -m output stops CI here instead of silently passing allocating
# code. A whole-module run that finds no contract fails too.
go run ./cmd/optipartlint ./...
go run ./cmd/optipartlint -listignores ./... >/dev/null

echo "==> fuzz smoke: FuzzRankWithSpan, FuzzSpanBox, FuzzRankOrder, FuzzCompareConsistent (10 s each)"
# The curve kernels' oracles, run past their seed corpora: the neighbour-span
# kernel against ranks of explicitly built face neighbours, the span box
# against the deepest ancestor holding those neighbours, rank order against
# the tree-walking Compare, and Compare itself, the reference order every
# other check leans on, against its own invariants.
for target in FuzzRankWithSpan FuzzSpanBox FuzzRankOrder FuzzCompareConsistent; do
    go test ./internal/sfc -run '^$' -fuzz "^$target\$" -fuzztime 10s
done

echo "==> fuzz smoke: FuzzDecodeFrame, FuzzDecodeBodies (10 s each)"
# The wire transport's trust boundary: every byte a peer sends passes the
# frame decoder, then a body decoder or comm's collective-value decoders.
# Each must reject or decode, never panic, and never allocate more than its
# input bounds.
for target in FuzzDecodeFrame FuzzDecodeBodies; do
    go test ./internal/net -run '^$' -fuzz "^$target\$" -fuzztime 10s
done

echo "==> fuzz smoke: FuzzDigestCanonicalization, FuzzServiceCanonicalHit, FuzzServeConn, FuzzServiceDo (10 s each)"
# The cache's identity: any ordering or padding of one octree digests alike
# after canonicalization, and at the Service level its canonical form hits
# as sent while a shuffled, duplicated copy hits through canonicalization,
# both returning the one cached response. Then the service's trust
# boundary: whatever bytes a client sends, ServeConn returns without
# panicking and the Service still answers a valid request; whatever
# Request a client builds, Do answers or refuses it without panicking.
for target in FuzzDigestCanonicalization FuzzServiceCanonicalHit FuzzServeConn FuzzServiceDo; do
    go test ./internal/service -run '^$' -fuzz "^$target\$" -fuzztime 10s
done

echo "==> fuzz smoke: FuzzDecodeSnapshot (10 s)"
# The on-disk trust boundary: a checkpoint file is read back from storage
# nothing vouches for. The decoder must reject or decode, never panic or
# over-allocate, and whatever it accepts must re-encode to the same bytes.
go test ./internal/ckpt -run '^$' -fuzz '^FuzzDecodeSnapshot$' -fuzztime 10s

echo "==> fuzz smoke: FuzzRepartitionerStep (10 s)"
# The serial engine's count memo: short campaigns from fuzzed seeds,
# partition counts and refine/coarsen fractions, where every Step must
# adopt what a cold Rebuild adopts and report the Quality a full
# Algorithm 2 recount gives.
go test ./internal/partition -run '^$' -fuzz '^FuzzRepartitionerStep$' -fuzztime 10s

echo "==> go test -race -shuffle=on $* ./..."
go test -race -shuffle=on "$@" ./...

echo "==> par/comm/psort dedicated race pass"
# Among them TestSetWorkersDuringRegions, which resizes the pool under
# running regions, and the tests that wait for a retired pool's workers and
# a returned world's goroutines to exit.
go test -race -shuffle=on -count=1 ./internal/par ./internal/comm ./internal/psort
# Repartitioner.Step merges its columns and rescans partitions in chunks on
# the pool, whose regions recycle their jobs; its tests run three more
# times under the race detector.
go test -race -count=3 -run Repartitioner ./internal/partition

echo "==> net dedicated race pass"
# Root.Step writes each step's result frames, one per worker for a personal
# Alltoallv, into the log that admit replays to a reconnecting or rejoining
# worker while the readers and the heartbeat loop run. The exchange, wire
# and rejoin tests run three more times under the race detector, among them
# TestWireWorldReleasesGoroutines: a silent worker's world fails through the
# heartbeat, and every goroutine exits once Root and Workers close.
go test -race -count=3 -run 'Exchange|Wire|Restore|Rejoin' ./internal/net

echo "==> lint dedicated race pass"
# The analyzers themselves are exercised under the race detector with test
# shuffling: fixture expectations must not depend on package or test order.
go test -race -shuffle=on -count=1 ./internal/lint

echo "==> service dedicated race pass"
# The service layer is the one place concurrent client goroutines share
# mutable state on purpose (cache map, LRU, arena freelist, admission), so
# it gets its own -race pass on top of the suite-wide one. Admission and
# singleflight wait on one cond, so their tests run five more times, and so
# does TestHitDuringEviction: a canonical hit verifies the cached keys
# outside the mutex while misses evict entries, and the race detector also
# reports an eviction that writes keys a hit may still be reading.
go test -race -shuffle=on -count=1 ./internal/service
go test -race -count=5 -run 'Admission|Singleflight|ConcurrentMixed|HitDuringEviction' ./internal/service

echo "==> mutant ledger: scripts/mutants.sh"
# Each patch under scripts/mutants/ plants one defect a test was written to
# catch; the stage fails if that test still passes (the oracle has gone
# blind) or the patch no longer applies (refresh it with the lines it
# mutates). Tests run with -run under a timeout, never under -fuzz.
./scripts/mutants.sh

echo "==> benchmark spine: quick run, exact metrics against scripts/spine_quick_baseline.json"
# The one bench harness (benchmark/, BENCHMARK.json) is the gate. The quick
# run exits non-zero on any failed output check; the comparison then fails
# this stage iff a metric that repeats bit for bit at one seed — modeled_tp_us
# and every count in benchmark/main.go's exact set — is marked "changed", or
# a larger share of ops failed. Timing verdicts are printed but ignored: the
# quick sizes are a smoke test and this host drifts 20 % within an hour. A PR
# that legitimately changes a placement regenerates the baseline with
#   bash benchmark/run.sh -quick >scripts/spine_quick_baseline.json
# and says so in CHANGES.md.
if ! bash benchmark/run.sh -quick >"$work/quick.json" 2>"$work/quick.log"; then
    echo "benchmark -quick failed:" >&2
    cat "$work/quick.log" >&2
    exit 1
fi
bash benchmark/run.sh -compare scripts/spine_quick_baseline.json "$work/quick.json" >"$work/compare.txt" || true
cat "$work/compare.txt"
if [ ! -s "$work/compare.txt" ] ||
        grep -Eq 'changed|failed ops|only in the new run|^note: the runs differ|^compare:' "$work/compare.txt"; then
    echo "spine: exact metrics or failed-op share differ from scripts/spine_quick_baseline.json" >&2
    exit 1
fi
# Repartitioner.Step's zero-allocation contract, read from the number the
# spine itself reports (TestRepartitionerStepZeroAlloc guards the same
# contract inside the suite). A missing metric fails too.
stepallocs=$(grep -Eo '"partition\.step_allocs":\{"value":[^,}]*' "$work/quick.json" | sed 's/.*"value"://')
if [ "$stepallocs" != "0" ]; then
    echo "spine: partition.step_allocs is ${stepallocs:-missing}, want 0" >&2
    exit 1
fi

echo "CI OK"
