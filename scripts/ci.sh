#!/bin/sh
# ci.sh — the repo's gate, runnable anywhere the Go toolchain exists:
#
#   ./scripts/ci.sh          # every stage below, in order
#   ./scripts/ci.sh -short   # same, with -short passed to the suite-wide test run
#
# Stages: go vet; gofmt -l; go build; optipartlint (its nine rules, the
# compiler-verified //alloc:zero contracts among them, then its
# -listignores audit); a 10 s fuzz smoke each of internal/sfc's
# FuzzRankWithSpan, FuzzSpanBox, FuzzRankOrder and
# FuzzCompareConsistent, internal/net's FuzzDecodeFrame and
# FuzzDecodeBodies, internal/service's FuzzDigestCanonicalization,
# FuzzServiceCanonicalHit, FuzzServeConn and FuzzServiceDo, internal/ckpt's
# FuzzDecodeSnapshot, and
# internal/partition's FuzzRepartitionerStep;
# go test -race -shuffle=on ./...; dedicated race passes for par/comm/psort,
# lint, and service; the mutant ledger (scripts/mutants.sh: under each
# scripts/mutants/*.patch its named test must fail); the benchmark spine's
# quick run with its exact metrics compared against
# scripts/spine_quick_baseline.json and its partition.step_allocs required
# to be 0; the repart
# transcript at -workers 1 and GOMAXPROCS against its golden; the full
# repart campaign and its built-in assertions, at -workers 1 and GOMAXPROCS
# with the two transcripts compared; then the smokes: optipartd
# local mode (one in-process run), optipartd multi-process (kill and
# recover), optipartd self-healing (restore), and
# the chaos harness on five fixed seeds. The -serve daemon's wire loop is
# cmd/optipartd's TestServeDrain, run by the suite-wide -race pass.
#
# The comm runtime is a shared-memory stand-in for MPI: every collective is
# goroutines racing through a barrier, which is exactly the code the race
# detector should be standing guard over — so the suite always runs with
# -race here.
set -eu
cd "$(dirname "$0")/.."

# Every stage writes its reports, logs, binaries and sockets under one work
# directory, removed on any exit.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# expect LOG LINE fails the gate unless LOG holds LINE, printing the log and
# the missing line first.
expect() {
    if ! grep -q "$2" "$1"; then
        echo "$1 lacks the expected line: $2" >&2
        cat "$1" >&2
        exit 1
    fi
}

# refuse CMD... fails the gate if CMD exits zero, printing its output.
refuse() {
    if out=$("$@" 2>&1); then
        echo "expected a non-zero exit from: $*" >&2
        echo "$out" >&2
        exit 1
    fi
}

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

echo "==> optipartlint ./... (nine rules, //alloc:zero contracts included)"
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
go test -race -shuffle=on -count=1 ./internal/par ./internal/comm ./internal/psort

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

echo "==> repart transcript bit-identical at -workers 1 and GOMAXPROCS, and to its golden"
# The incremental repartitioning campaign must not depend on worker-pool
# width: the quick transcript is compared byte-for-byte between the serial
# path and the host's full width, then against the committed golden.
go run ./cmd/experiments -run repart -quick -workers 1 >"$work/w1.txt"
go run ./cmd/experiments -run repart -quick >"$work/wmax.txt"
if ! cmp -s "$work/w1.txt" "$work/wmax.txt"; then
    echo "repart transcript differs between -workers 1 and GOMAXPROCS:" >&2
    diff "$work/w1.txt" "$work/wmax.txt" >&2 || true
    exit 1
fi
if ! cmp -s "$work/w1.txt" internal/experiments/testdata/golden/repart.golden; then
    echo "repart transcript diverges from the committed golden:" >&2
    diff internal/experiments/testdata/golden/repart.golden "$work/w1.txt" >&2 || true
    exit 1
fi

echo "==> repart full campaign (its built-in headline assertions are the gate), bit-identical at -workers 1 and GOMAXPROCS"
# The quick transcript cannot see Repartition's merge rung: without it the
# quick placements are unchanged, but the full campaign keeps the prior at
# step 8 and its cumulative Tp falls behind from-scratch. The experiment
# checks fewer moved elements and no worse cumulative Tp than from-scratch
# at the default seed, and exits non-zero when either fails; the Tp half
# holds only at some seeds, so TestRepartSeedSweep checks moved elements
# and cumulative J at full size over seeds 1-5. The two transcripts must
# match apart from the host wall time line.
go run ./cmd/experiments -run repart -workers 1 >"$work/full-w1.txt"
go run ./cmd/experiments -run repart >"$work/full-wmax.txt"
grep -v '^host wall time' "$work/full-w1.txt" >"$work/full-w1.cmp"
grep -v '^host wall time' "$work/full-wmax.txt" >"$work/full-wmax.cmp"
if ! cmp -s "$work/full-w1.cmp" "$work/full-wmax.cmp"; then
    echo "full repart transcript differs between -workers 1 and GOMAXPROCS:" >&2
    diff "$work/full-w1.cmp" "$work/full-wmax.cmp" >&2 || true
    exit 1
fi

echo "==> optipartd multi-process smoke (4 ranks, kill one, recover)"
# Hermetic: workers rendezvous over unix sockets in a private temp dir, no
# ports and no network assumptions. The driver hosts rank 0, spawns 3 worker
# processes, hard-kills rank 2 at its 3rd collective (a real os.Exit,
# detected by heartbeat), and must finish the repartition onto the 3
# survivors within the deadline — a hang here is a failed gate, not a stuck
# CI job.
go build -o "$work/optipartd" ./cmd/optipartd
# The same binary with no wire mode flag runs the local (in-process) mode:
# this covers its dispatch and flag wiring end to end.
"$work/optipartd" -p 8 -n 20000 >"$work/local.log"
expect "$work/local.log" "predicted app step"
# A kill past the run's last collective never fires, and a non-finite model
# input is refused: both must fail the run.
refuse "$work/optipartd" -p 8 -n 20000 -kill 3@100000
refuse "$work/optipartd" -p 8 -n 2000 -alpha NaN
if ! "$work/optipartd" -launch -p 4 -n 6000 -kill 2@3 -deadline 90s \
        -socket "$work" >"$work/smoke.log" 2>&1; then
    echo "optipartd smoke failed:" >&2
    cat "$work/smoke.log" >&2
    exit 1
fi
expect "$work/smoke.log" "structured failure as expected"
expect "$work/smoke.log" "recovery on 3 survivors completed"

echo "==> optipartd self-healing smoke (restore policy: kill, respawn, resume)"
# Same hermetic setup, -on-failure=restore: the victim hard-exits mid-campaign,
# the supervisor respawns it under the backoff budget, the replacement restores
# from the newest checkpoint, and the finished campaign's digest must be
# byte-identical to the fault-free golden the driver computes up front.
if ! "$work/optipartd" -launch -p 3 -n 3000 -steps 4 -on-failure=restore \
        -kill 2@30 -deadline 90s -socket "$work" >"$work/restore.log" 2>&1; then
    echo "optipartd restore smoke failed:" >&2
    cat "$work/restore.log" >&2
    exit 1
fi
expect "$work/restore.log" "supervisor: respawned rank"
expect "$work/restore.log" "restoring from epoch"
expect "$work/restore.log" "digest matches fault-free golden"

echo "==> chaos harness smoke (5 fixed seeds, quick sizes, short deadline)"
# Each seed draws a distinct kill/drain/straggler schedule; every one
# must end in a campaign whose digest matches its fault-free golden. timeout
# guards the gate itself: a wedged harness fails fast instead of hanging CI.
for seed in 1 2 3 4 5; do
    timeout 120 go run ./cmd/experiments -run chaos -quick -seed "$seed" >/dev/null
done

echo "CI OK"
