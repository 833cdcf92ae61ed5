package psort_test

import (
	"math/rand"
	"sort"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/octree"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

func TestTreeSortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.Intn(2000)
				keys := octree.RandomKeys(rng, n, dim, octree.Uniform, 0, 12)
				want := append([]sfc.Key(nil), keys...)
				sort.SliceStable(want, func(i, j int) bool { return curve.Compare(want[i], want[j]) < 0 })
				psort.TreeSort(curve, keys)
				for i := range keys {
					// Equal keys may permute; compare by order only.
					if curve.Compare(keys[i], want[i]) != 0 {
						t.Fatalf("%v dim=%d n=%d: position %d differs: %v vs %v",
							kind, dim, n, i, keys[i], want[i])
					}
				}
			}
		}
	}
}

func TestTreeSortMixedLevels(t *testing.T) {
	// Coarse elements (ancestors) must precede their descendants.
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	rng := rand.New(rand.NewSource(37))
	keys := octree.RandomKeys(rng, 500, 3, octree.Normal, 2, 10)
	// Inject explicit ancestor/descendant pairs.
	for i := 0; i < 50; i++ {
		k := keys[rng.Intn(len(keys))]
		if k.Level > 1 {
			keys = append(keys, k.Ancestor(k.Level/2))
		}
	}
	psort.TreeSort(curve, keys)
	if !psort.IsSorted(curve, keys) {
		t.Fatal("TreeSort output not in curve order")
	}
}

func TestTreeSortEmptyAndSingle(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	psort.TreeSort(curve, nil)
	one := []sfc.Key{{X: 4, Level: sfc.MaxLevel}}
	psort.TreeSort(curve, one)
	if one[0].X != 4 {
		t.Fatal("single-element sort corrupted data")
	}
}

func TestTreeSortAllDuplicates(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	k := sfc.Key{X: 1 << 29, Y: 1 << 28, Z: 1 << 27, Level: sfc.MaxLevel}
	keys := make([]sfc.Key, 100)
	for i := range keys {
		keys[i] = k
	}
	psort.TreeSort(curve, keys)
	for _, got := range keys {
		if got != k {
			t.Fatal("duplicate sort corrupted data")
		}
	}
}

func TestTreeSortPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := octree.RandomKeys(rng, 3000, 3, octree.LogNormal, 0, 15)
	count := map[sfc.Key]int{}
	for _, k := range keys {
		count[k]++
	}
	psort.TreeSort(curve, keys)
	for _, k := range keys {
		count[k]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("multiset changed at %v: %d", k, v)
		}
	}
}

func TestLocalSortCost(t *testing.T) {
	if psort.LocalSortCost(0, 3) != 0 || psort.LocalSortCost(1, 3) != 0 {
		t.Fatal("trivial sorts must cost nothing")
	}
	if psort.LocalSortCost(1000, 3) <= 0 {
		t.Fatal("non-trivial sort must cost something")
	}
	if psort.LocalSortCost(1_000_000, 3) <= psort.LocalSortCost(1000, 3) {
		t.Fatal("cost must grow with n")
	}
	// 2D trees are deeper for the same n: more passes.
	if psort.LocalSortCost(4096, 2) <= psort.LocalSortCost(4096, 3) {
		t.Fatal("2D sort must need more passes than 3D for equal n")
	}
}

func TestSampleSortGlobalOrder(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
			curve := sfc.NewCurve(kind, 3)
			perRank := make([][]sfc.Key, p)
			comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
				rng := rand.New(rand.NewSource(int64(100 + c.Rank())))
				local := octree.RandomKeys(rng, 400+11*c.Rank(), 3, octree.Normal, 1, 12)
				perRank[c.Rank()] = psort.SampleSort(c, local, curve)
			})
			total := 0
			var prevLast *sfc.Key
			for r := 0; r < p; r++ {
				run := perRank[r]
				total += len(run)
				if !psort.IsSorted(curve, run) {
					t.Fatalf("p=%d %v: rank %d run not sorted", p, kind, r)
				}
				if prevLast != nil && len(run) > 0 && curve.Compare(run[0], *prevLast) < 0 {
					t.Fatalf("p=%d %v: rank %d starts before rank %d ends", p, kind, r, r-1)
				}
				if len(run) > 0 {
					last := run[len(run)-1]
					prevLast = &last
				}
			}
			wantTotal := 0
			for r := 0; r < p; r++ {
				wantTotal += 400 + 11*r
			}
			if total != wantTotal {
				t.Fatalf("p=%d %v: element count %d, want %d", p, kind, total, wantTotal)
			}
		}
	}
}

func TestSampleSortBalance(t *testing.T) {
	// Regular sampling keeps the imbalance modest even on skewed input.
	p := 8
	sizes := make([]int, p)
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		rng := rand.New(rand.NewSource(int64(200 + c.Rank())))
		local := octree.RandomKeys(rng, 2000, 3, octree.LogNormal, 2, 14)
		out := psort.SampleSort(c, local, curve)
		sizes[c.Rank()] = len(out)
	})
	max, min := 0, 1<<62
	for _, s := range sizes {
		if s > max {
			max = s
		}
		if s < min {
			min = s
		}
	}
	if min == 0 || float64(max)/float64(min) > 2.5 {
		t.Fatalf("samplesort imbalance too high: sizes %v", sizes)
	}
}

func TestSampleSortPhases(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	model := comm.CostModel{Tc: 1e-9, Ts: 1e-5, Tw: 1e-8}
	stats := comm.Run(4, model, func(c *comm.Comm) {
		rng := rand.New(rand.NewSource(int64(300 + c.Rank())))
		local := octree.RandomKeys(rng, 1000, 3, octree.Uniform, 1, 10)
		psort.SampleSort(c, local, curve)
	})
	for _, phase := range []string{"local sort", "splitter", "all2all"} {
		if stats.Phase(phase) <= 0 {
			t.Fatalf("phase %q has no modeled time", phase)
		}
	}
}
