package psort

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/sfc"
)

// sortWorkerCounts is the ISSUE's matrix: serial, two, an odd prime, and
// the host's GOMAXPROCS.
func sortWorkerCounts() []int {
	counts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// adversarialInputs builds the stress cases of the ISSUE: sizes straddling
// both cutoffs, duplicate-heavy multisets, presorted and reversed runs, and
// keys sharing a long common prefix (which degenerates the top radix
// levels into the skip-common-digit path).
func adversarialInputs(rng *rand.Rand, dim int) map[string][]sfc.Key {
	curve := sfc.NewCurve(sfc.Morton, dim)
	inputs := map[string][]sfc.Key{}
	for _, n := range []int{0, 1, insertionCutoff - 1, insertionCutoff + 1,
		parallelCutoff - 1, parallelCutoff + 1, 3 * parallelCutoff} {
		inputs[fmt.Sprintf("uniform/n=%d", n)] = octree.RandomKeys(rng, n, dim, octree.Uniform, 0, 12)
	}
	n := parallelCutoff * 2
	dup := make([]sfc.Key, n)
	base := octree.RandomKeys(rng, 7, dim, octree.Uniform, 1, 6)
	for i := range dup {
		dup[i] = base[rng.Intn(len(base))]
	}
	inputs["duplicate-heavy"] = dup

	sorted := octree.RandomKeys(rng, n, dim, octree.Uniform, 0, 12)
	TreeSortComparator(curve, sorted)
	inputs["presorted"] = sorted
	rev := append([]sfc.Key(nil), sorted...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	inputs["reversed"] = rev

	// Deep keys inside one tiny subtree: every rank shares a long digit
	// prefix, so the radix sort must skip many common digits before any
	// scatter happens.
	anchor := octree.RandomKeys(rng, 1, dim, octree.Uniform, 10, 10)[0]
	deep := make([]sfc.Key, n)
	for i := range deep {
		k := anchor
		for int(k.Level) < 18 {
			k = k.Child(rng.Intn(1 << dim))
		}
		deep[i] = k
	}
	inputs["shared-prefix"] = deep
	return inputs
}

// TestParallelTreeSortMatchesSerial: for every worker count, every curve,
// and every adversarial input, the parallel TreeSort output is byte-for-byte
// the serial output. Equal keys are identical values and the parallel
// scatter is stable, so exact equality is the right oracle.
func TestParallelTreeSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1751))
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			for name, input := range adversarialInputs(rng, dim) {
				want := append([]sfc.Key(nil), input...)
				func() {
					prev := par.SetWorkers(1)
					defer par.SetWorkers(prev)
					TreeSort(curve, want)
				}()
				for _, w := range sortWorkerCounts() {
					got := append([]sfc.Key(nil), input...)
					func() {
						prev := par.SetWorkers(w)
						defer par.SetWorkers(prev)
						TreeSort(curve, got)
					}()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v dim=%d %s workers=%d: output differs at %d: %v vs %v",
								kind, dim, name, w, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestParRadixSortSoADirect exercises parRadixSortSoA below its own gate
// logic: even when invoked directly on a wide pool it must reproduce the
// serial permutation of both columns.
func TestParRadixSortSoADirect(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := octree.RandomKeys(rng, parallelCutoff+513, 3, octree.Normal, 0, 14)
	mk := func() ([]sfc.Key, []sfc.Rank128) {
		ks := append([]sfc.Key(nil), keys...)
		rs := make([]sfc.Rank128, len(keys))
		for i, k := range keys {
			rs[i] = curve.Rank(k)
		}
		return ks, rs
	}
	wantK, wantR := mk()
	radixSortSoA(wantK, wantR, make([]sfc.Key, len(wantK)), make([]sfc.Rank128, len(wantR)), 0)
	for _, w := range sortWorkerCounts() {
		gotK, gotR := mk()
		prev := par.SetWorkers(w)
		parRadixSortSoA(gotK, gotR, make([]sfc.Key, len(gotK)), make([]sfc.Rank128, len(gotR)), 0)
		par.SetWorkers(prev)
		for i := range wantK {
			if gotK[i] != wantK[i] || gotR[i] != wantR[i] {
				t.Fatalf("workers=%d: record %d differs", w, i)
			}
		}
	}
}

// TestArenaCapacityBounded is the retention regression test ported from the
// retired pair pool: a column inflated past MaxArenaKeys must not survive
// Trim, so one huge sort cannot pin its working arrays for the process
// lifetime — neither in the shared arena pool nor in a service-held arena.
func TestArenaCapacityBounded(t *testing.T) {
	var a Arena
	a.grow(MaxArenaKeys + 1)
	a.growKeys(MaxArenaKeys + 1)
	a.Spans(MaxArenaKeys + 1)
	a.AltSpans(MaxArenaKeys + 1)
	a.Trim()
	if cap(a.ranks) != 0 || cap(a.kAlt) != 0 || cap(a.keys) != 0 {
		t.Fatalf("Trim retained oversized columns: ranks=%d kAlt=%d keys=%d",
			cap(a.ranks), cap(a.kAlt), cap(a.keys))
	}
	if cap(a.lo) != 0 || cap(a.hi) != 0 || cap(a.loAlt) != 0 || cap(a.hiAlt) != 0 {
		t.Fatalf("Trim retained oversized span columns: lo=%d hi=%d loAlt=%d hiAlt=%d",
			cap(a.lo), cap(a.hi), cap(a.loAlt), cap(a.hiAlt))
	}
	// The pool inherits the bound through PutArena.
	huge := &Arena{}
	huge.grow(MaxArenaKeys + 1)
	PutArena(huge)
	for i := 0; i < 64; i++ {
		p := GetArena()
		if cap(p.ranks) > MaxArenaKeys || cap(p.kAlt) > MaxArenaKeys {
			t.Fatalf("pool returned arena with cap ranks=%d kAlt=%d > MaxArenaKeys %d",
				cap(p.ranks), cap(p.kAlt), MaxArenaKeys)
		}
		PutArena(p)
	}
	// Bounded columns are still recycled: TreeSort keeps working after the
	// cap rejection, and a trimmed arena regrows on demand.
	rng := rand.New(rand.NewSource(5))
	curve := sfc.NewCurve(sfc.Morton, 3)
	keys := octree.RandomKeys(rng, 4096, 3, octree.Uniform, 0, 10)
	TreeSort(curve, keys)
	if !IsSorted(curve, keys) {
		t.Fatal("TreeSort output not sorted after pool-cap exercise")
	}
	TreeSortArena(curve, keys, &a)
	if !IsSorted(curve, keys) {
		t.Fatal("TreeSortArena output not sorted after Trim")
	}
}

// TestTreeSortArenaMatchesTreeSort: the arena entry point must produce the
// identical permutation as the pooled one, its returned rank column must be
// aligned with the sorted keys (trivial inputs included), and reusing one
// arena across sorts of varying sizes must not corrupt results.
func TestTreeSortArenaMatchesTreeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	var a Arena
	for _, n := range []int{0, 1, 2, insertionCutoff + 1, 4096, parallelCutoff + 7, 100} {
		keys := octree.RandomKeys(rng, n, 3, octree.Normal, 0, 14)
		want := append([]sfc.Key(nil), keys...)
		TreeSort(curve, want)
		got := append([]sfc.Key(nil), keys...)
		ranks, _ := TreeSortArena(curve, got, &a)
		if len(ranks) != n {
			t.Fatalf("n=%d: rank column has %d entries", n, len(ranks))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: arena sort differs at %d", n, i)
			}
			if ranks[i] != curve.Rank(got[i]) {
				t.Fatalf("n=%d: rank column misaligned at %d", n, i)
			}
		}
	}
}

// TestTreeSortArenaSortedInput covers the rank pass's order check, which
// skips the radix passes on input already in curve order: sorted input,
// sorted input with runs of duplicates, and input sorted inside every
// rankGrain chunk but inverted across one chunk boundary, which only the
// boundary check can catch. Every output must equal TreeSortComparator's,
// with an aligned rank column and the right presorted flag, at pool widths
// 1 and 2.
func TestTreeSortArenaSortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	n := parallelCutoff + rankGrain/2
	sorted := octree.RandomKeys(rng, n, 3, octree.Normal, 0, 14)
	TreeSortComparator(curve, sorted)
	dups := make([]sfc.Key, n)
	base := octree.RandomKeys(rng, 7, 3, octree.Uniform, 1, 6)
	for i := range dups {
		dups[i] = base[rng.Intn(len(base))]
	}
	TreeSortComparator(curve, dups)
	swapped := append([]sfc.Key(nil), sorted...)
	copy(swapped[rankGrain:], sorted[2*rankGrain:3*rankGrain])
	copy(swapped[2*rankGrain:], sorted[rankGrain:2*rankGrain])
	inputs := map[string][]sfc.Key{"sorted": sorted, "duplicates": dups, "chunks-swapped": swapped}
	for name, input := range inputs {
		wantPresorted := name != "chunks-swapped"
		want := append([]sfc.Key(nil), input...)
		TreeSortComparator(curve, want)
		for _, w := range []int{1, 2} {
			got := append([]sfc.Key(nil), input...)
			var a Arena
			prev := par.SetWorkers(w)
			ranks, presorted := TreeSortArena(curve, got, &a)
			par.SetWorkers(prev)
			if presorted != wantPresorted {
				t.Fatalf("%s workers=%d: presorted = %v", name, w, presorted)
			}
			for i := range want {
				if got[i] != want[i] || ranks[i] != curve.Rank(want[i]) {
					t.Fatalf("%s workers=%d: record %d differs", name, w, i)
				}
			}
		}
	}
}

// FuzzParallelTreeSort drives random (seed, size, workers, curve) tuples
// through the serial-vs-parallel equivalence oracle.
func FuzzParallelTreeSort(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(3), uint8(1))
	f.Add(int64(42), uint16(20000), uint8(4), uint8(3))
	f.Add(int64(7), uint16(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, workers, kindDim uint8) {
		rng := rand.New(rand.NewSource(seed))
		kind := sfc.Morton
		if kindDim&1 == 1 {
			kind = sfc.Hilbert
		}
		dim := 2 + int(kindDim>>1)&1
		curve := sfc.NewCurve(kind, dim)
		keys := octree.RandomKeys(rng, int(n), dim, octree.Uniform, 0, 15)
		want := append([]sfc.Key(nil), keys...)
		prev := par.SetWorkers(1)
		TreeSort(curve, want)
		par.SetWorkers(int(workers)%8 + 1)
		got := append([]sfc.Key(nil), keys...)
		TreeSort(curve, got)
		par.SetWorkers(prev)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d n=%d: output differs at %d", int(workers)%8+1, n, i)
			}
		}
	})
}
