#!/bin/sh
# mutants.sh — the mutant ledger: every oracle shows that it can fail.
#
#   ./scripts/mutants.sh                        # every scripts/mutants/*.patch
#   ./scripts/mutants.sh scripts/mutants/001-*  # the named patches only
#
# A mutant is scripts/mutants/NNN-name.patch: a unified diff against the
# live tree whose first line names the package and the -run pattern that
# must fail under it, and whose second says what the mutation breaks:
#
#   # mutant: ./internal/comm ^TestCodecRoundTrip$
#   # comm.Reader.Count refuses a count whose items exactly fill ...
#
# The script copies the live tree (tracked and untracked files, less what
# .gitignore names) into one temporary directory. For each patch it runs
# git apply, then go test -count=1 -run <pattern> <package> under a
# timeout, then git apply -R, and reports the patch as
#
#   killed    the test failed (or hung past the timeout), as it must;
#   survived  the test passed: the oracle no longer sees the defect;
#   stale     the patch no longer applies: refresh it against the lines it
#             mutates;
#   broken    the mutated tree does not build.
#
# Anything but killed fails the script. Mutants run with -run only, never
# under -fuzz: a mutant that drops a size bound makes fuzz inputs ask for
# slices larger than the host's memory.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

limit=${MUTANT_TIMEOUT:-120}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git ls-files -co --exclude-standard | while IFS= read -r f; do
    if [ -e "$f" ]; then printf '%s\n' "$f"; fi
done | tar -cf - -T - | tar -xf - -C "$work/"
mkdir "$work/.logs"

if [ $# -eq 0 ]; then
    set -- scripts/mutants/*.patch
fi
status=0
for patch in "$@"; do
    case $patch in /*) ;; *) patch=$root/$patch ;; esac
    name=$(basename "$patch" .patch)
    read -r _ _ pkg pattern <"$patch"
    if ! (cd "$work" && git apply --check "$patch" 2>/dev/null); then
        echo "stale     $name"
        status=1
        continue
    fi
    (cd "$work" && git apply "$patch")
    log=$work/.logs/$name.log
    if (cd "$work" && timeout "$limit" go test -count=1 -run "$pattern" "$pkg" >"$log" 2>&1); then
        verdict=survived
    elif grep -q '\[build failed\]\|\[setup failed\]' "$log"; then
        verdict=broken
    else
        verdict=killed
    fi
    (cd "$work" && git apply -R "$patch")
    printf '%-9s %s (%s -run %s)\n' "$verdict" "$name" "$pkg" "$pattern"
    if [ "$verdict" != killed ]; then
        cat "$log" >&2
        status=1
    fi
done
exit "$status"
