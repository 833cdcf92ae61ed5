package psort_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/psort"
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
	for _, n := range []int{0, 1, psort.InsertionCutoff - 1, psort.InsertionCutoff + 1,
		psort.ParallelCutoff - 1, psort.ParallelCutoff + 1, 3 * psort.ParallelCutoff} {
		inputs[fmt.Sprintf("uniform/n=%d", n)] = octree.RandomKeys(rng, n, dim, octree.Uniform, 0, 12)
	}
	n := psort.ParallelCutoff * 2
	dup := make([]sfc.Key, n)
	base := octree.RandomKeys(rng, 7, dim, octree.Uniform, 1, 6)
	for i := range dup {
		dup[i] = base[rng.Intn(len(base))]
	}
	inputs["duplicate-heavy"] = dup

	sorted := octree.RandomKeys(rng, n, dim, octree.Uniform, 0, 12)
	psort.TreeSortComparator(curve, sorted)
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
					psort.TreeSort(curve, want)
				}()
				for _, w := range sortWorkerCounts() {
					got := append([]sfc.Key(nil), input...)
					func() {
						prev := par.SetWorkers(w)
						defer par.SetWorkers(prev)
						psort.TreeSort(curve, got)
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
	keys := octree.RandomKeys(rng, psort.ParallelCutoff+513, 3, octree.Normal, 0, 14)
	mk := func() ([]sfc.Key, []sfc.Rank128) {
		ks := append([]sfc.Key(nil), keys...)
		rs := make([]sfc.Rank128, len(keys))
		for i, k := range keys {
			rs[i] = curve.Rank(k)
		}
		return ks, rs
	}
	wantK, wantR := mk()
	psort.RadixSortSoA(wantK, wantR, make([]sfc.Key, len(wantK)), make([]sfc.Rank128, len(wantR)), 0)
	for _, w := range sortWorkerCounts() {
		gotK, gotR := mk()
		prev := par.SetWorkers(w)
		psort.ParRadixSortSoA(gotK, gotR, make([]sfc.Key, len(gotK)), make([]sfc.Rank128, len(gotR)), 0)
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
	if got := psort.Trimmed(make([]int, 0, psort.MaxArenaKeys)); cap(got) != psort.MaxArenaKeys {
		t.Fatalf("trimmed dropped a column at the bound: cap %d", cap(got))
	}
	if got := psort.Trimmed(make([]int, psort.MaxArenaKeys+1)); got != nil {
		t.Fatalf("trimmed kept a column past the bound: cap %d", cap(got))
	}
	var a psort.Arena
	inflate(&a, psort.MaxArenaKeys+1)
	a.Trim()
	if caps := columnCaps(&a); slices.Max(caps) != 0 {
		t.Fatalf("Trim retained oversized columns: caps %v", caps)
	}
	// The pool inherits the bound through PutArena.
	huge := &psort.Arena{}
	inflate(huge, psort.MaxArenaKeys+1)
	psort.PutArena(huge)
	for i := 0; i < 64; i++ {
		p := psort.GetArena()
		if caps := columnCaps(p); slices.Max(caps) > psort.MaxArenaKeys {
			t.Fatalf("pool returned arena with caps %v > MaxArenaKeys %d", caps, psort.MaxArenaKeys)
		}
		psort.PutArena(p)
	}
	// Bounded columns are still recycled: TreeSort keeps working after the
	// cap rejection, and a trimmed arena regrows on demand.
	rng := rand.New(rand.NewSource(5))
	curve := sfc.NewCurve(sfc.Morton, 3)
	keys := octree.RandomKeys(rng, 4096, 3, octree.Uniform, 0, 10)
	psort.TreeSort(curve, keys)
	if !psort.IsSorted(curve, keys) {
		t.Fatal("TreeSort output not sorted after pool-cap exercise")
	}
	psort.TreeSortArena(curve, keys, &a)
	if !psort.IsSorted(curve, keys) {
		t.Fatal("TreeSortArena output not sorted after Trim")
	}
}

// TestArenaTrimKeepsBoundedColumns: a column sized for at most
// MaxArenaKeys elements survives Trim, headroom and all, so an arena that
// serves sorts up to the bound is not reallocated on every use; one sized
// past the bound is dropped.
func TestArenaTrimKeepsBoundedColumns(t *testing.T) {
	for _, n := range []int{psort.MaxArenaKeys - 1, psort.MaxArenaKeys, psort.MaxArenaKeys + 1} {
		var a psort.Arena
		inflate(&a, n)
		a.Trim()
		for i, c := range columnCaps(&a) {
			if kept := c != 0; kept != (n <= psort.MaxArenaKeys) {
				t.Errorf("n=%d: column %d has cap %d after Trim", n, i, c)
			}
		}
	}
}

// inflate grows every column of a to n elements.
func inflate(a *psort.Arena, n int) {
	a.Columns(n)
	a.AltColumns(n)
	a.Spans(n)
	a.AltSpans(n)
	a.Pairs(n)
}

// columnCaps reads the capacity of every column of a through its accessors,
// each resliced to length zero (the contents are undefined anyway): keys,
// ranks, their scratch pair, the two span columns and their scratch pair,
// then the pairs column.
func columnCaps(a *psort.Arena) []int {
	keys, ranks := a.Columns(0)
	kAlt, rAlt := a.AltColumns(0)
	lo, hi := a.Spans(0)
	loAlt, hiAlt := a.AltSpans(0)
	return []int{cap(keys), cap(ranks), cap(kAlt), cap(rAlt), cap(lo), cap(hi), cap(loAlt), cap(hiAlt), cap(a.Pairs(0))}
}

// TestTreeSortArenaMatchesTreeSort: the arena entry point must produce the
// identical permutation as the pooled one, its returned rank column must be
// aligned with the sorted keys (trivial inputs included), and reusing one
// arena across sorts of varying sizes must not corrupt results.
func TestTreeSortArenaMatchesTreeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	var a psort.Arena
	for _, n := range []int{0, 1, 2, psort.InsertionCutoff + 1, 4096, psort.ParallelCutoff + 7, 100} {
		keys := octree.RandomKeys(rng, n, 3, octree.Normal, 0, 14)
		want := append([]sfc.Key(nil), keys...)
		psort.TreeSort(curve, want)
		got := append([]sfc.Key(nil), keys...)
		ranks, _ := psort.TreeSortArena(curve, got, &a)
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
	n := psort.ParallelCutoff + psort.RankGrain/2
	sorted := octree.RandomKeys(rng, n, 3, octree.Normal, 0, 14)
	psort.TreeSortComparator(curve, sorted)
	dups := make([]sfc.Key, n)
	base := octree.RandomKeys(rng, 7, 3, octree.Uniform, 1, 6)
	for i := range dups {
		dups[i] = base[rng.Intn(len(base))]
	}
	psort.TreeSortComparator(curve, dups)
	swapped := append([]sfc.Key(nil), sorted...)
	copy(swapped[psort.RankGrain:], sorted[2*psort.RankGrain:3*psort.RankGrain])
	copy(swapped[2*psort.RankGrain:], sorted[psort.RankGrain:2*psort.RankGrain])
	inputs := map[string][]sfc.Key{"sorted": sorted, "duplicates": dups, "chunks-swapped": swapped}
	for name, input := range inputs {
		wantPresorted := name != "chunks-swapped"
		want := append([]sfc.Key(nil), input...)
		psort.TreeSortComparator(curve, want)
		for _, w := range []int{1, 2} {
			got := append([]sfc.Key(nil), input...)
			var a psort.Arena
			prev := par.SetWorkers(w)
			ranks, presorted := psort.TreeSortArena(curve, got, &a)
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
		psort.TreeSort(curve, want)
		par.SetWorkers(int(workers)%8 + 1)
		got := append([]sfc.Key(nil), keys...)
		psort.TreeSort(curve, got)
		par.SetWorkers(prev)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d n=%d: output differs at %d", int(workers)%8+1, n, i)
			}
		}
	})
}
