// Package psort implements the sorting algorithms of the paper: the
// sequential TreeSort of Algorithm 1 (an MSD radix sort whose buckets are
// octree nodes visited in SFC order) and the parallel SampleSort baseline
// used by Dendro, against which OptiPart is compared in §5.2.
//
// The default TreeSort linearizes each key into its 128-bit curve rank
// (sfc.Rank) once, then radix-sorts the ranks — every hot comparison is a
// branchless integer compare, and the per-key virtual curve dispatch of the
// tree-walking formulation is paid exactly once per key instead of once per
// level per key. The paper-literal tree-walking implementation lives on as
// the test oracle (comparator_test.go); both produce identical output (curve
// order is a total order and equal keys are indistinguishable values), and
// LocalSortCost prices the algorithm, not the host implementation — the
// simulator got faster, not the modeled machine.
package psort

import (
	"math"
	"math/bits"
	"sync/atomic"

	"optipart/internal/comm"
	"optipart/internal/par"
	"optipart/internal/sfc"
)

// KeyBytes is the in-memory size of one element (an sfc.Key), used for the
// cost model's byte accounting.
const KeyBytes = 16

// insertionCutoff is the bucket size below which the sorters switch to
// insertion sort; tiny buckets are cheaper to finish with comparisons than
// with another counting pass.
const insertionCutoff = 24

// TreeSort reorders keys in place into curve order (Algorithm 1). It is a
// most-significant-digit radix sort over linearized curve ranks: bucketing
// on rank bytes visits octree nodes in SFC order exactly as the tree-walking
// formulation does (Figure 1 of the paper), because a rank's digit string
// *is* the key's path along the curve. Elements that are the current node
// (coarser regions) sort before all of the node's descendants, preserving
// pre-order, because the rank's trailing level field breaks ties between a
// node and its position-0 descendant chain.
func TreeSort(curve *sfc.Curve, keys []sfc.Key) {
	if len(keys) < 2 {
		return
	}
	a := GetArena()
	TreeSortArena(curve, keys, a)
	PutArena(a)
}

// TreeSortArena is TreeSort against a caller-owned Arena: the rank column
// and both scratch columns come from a, so a caller that reuses its arena
// across sorts (the service request path) performs zero steady-state
// allocations. keys itself is the key column — it is permuted in place. The
// returned rank column, a's, is aligned with the sorted keys:
// ranks[i] = curve.Rank(keys[i]).
//
// The rank pass also checks whether the ranks are already non-decreasing:
// an already-sorted block from the service, a canonical request, or sorted
// local keys. Then the radix passes are skipped and presorted is true. The
// keys and ranks are the same either way, because the radix sort is stable
// and so leaves such input in place.
func TreeSortArena(curve *sfc.Curve, keys []sfc.Key, a *Arena) (ranks []sfc.Rank128, presorted bool) {
	a.grow(len(keys))
	rs := a.ranks[:len(keys)] // not ranks: the closure would move a result to the heap
	if parallelOK(len(keys)) {
		// The parallel path produces the identical permutation (stable
		// chunked scatter, see parRadixSortSoA); curves are immutable and
		// safe for concurrent Rank calls. Each chunk checks its own order,
		// then the chunk boundaries are checked here.
		var descent atomic.Bool
		par.For(len(keys), rankGrain, func(lo, hi int) {
			if !rankSorted(curve, keys[lo:hi], rs[lo:hi]) {
				descent.Store(true)
			}
		})
		presorted = !descent.Load()
		for i := rankGrain; presorted && i < len(rs); i += rankGrain {
			presorted = !rs[i].Less(rs[i-1])
		}
		if !presorted {
			parRadixSortSoA(keys, rs, a.kAlt[:len(keys)], a.rAlt[:len(keys)], 0)
		}
	} else if presorted = rankSorted(curve, keys, rs); !presorted {
		radixSortSoA(keys, rs, a.kAlt[:len(keys)], a.rAlt[:len(keys)], 0)
	}
	return rs, presorted
}

// rankSorted fills ranks[i] = curve.Rank(keys[i]) and reports whether the
// ranks are non-decreasing. The order check is a borrow, not a branch, so
// unsorted input pays no mispredictions for it.
func rankSorted(curve *sfc.Curve, keys []sfc.Key, ranks []sfc.Rank128) bool {
	var prev sfc.Rank128
	var descents uint64
	for i, k := range keys {
		r := curve.Rank(k)
		ranks[i] = r
		_, b := bits.Sub64(r.Lo, prev.Lo, 0)
		_, b = bits.Sub64(r.Hi, prev.Hi, b)
		descents |= b
		prev = r
	}
	return descents == 0
}

// radixSortSoA sorts the parallel (keys, ranks) columns by rank with an MSD
// byte-radix, using the same-length scratch columns for the distribution
// pass, starting at rank digit d. Counting reads only the dense rank column;
// keys move only in the scatter.
func radixSortSoA(keys []sfc.Key, ranks []sfc.Rank128, kAlt []sfc.Key, rAlt []sfc.Rank128, d int) {
	for {
		if len(ranks) <= insertionCutoff {
			insertionSortSoA(keys, ranks)
			return
		}
		if d >= sfc.RankDigits {
			return // full ranks equal: keys equal, nothing to order
		}
		var counts [256]int
		for i := range ranks {
			counts[ranks[i].Digit(d)]++
		}
		// A digit shared by every element (common ancestor prefix, level
		// padding) needs no data movement: advance to the next digit.
		if counts[ranks[0].Digit(d)] == len(ranks) {
			d++
			continue
		}
		var offs [257]int
		for b := 0; b < 256; b++ {
			offs[b+1] = offs[b] + counts[b]
		}
		starts := offs
		for i := range ranks {
			b := ranks[i].Digit(d)
			rAlt[starts[b]] = ranks[i]
			kAlt[starts[b]] = keys[i]
			starts[b]++
		}
		copy(ranks, rAlt[:len(ranks)])
		copy(keys, kAlt[:len(keys)])
		for b := 0; b < 256; b++ {
			if lo, hi := offs[b], offs[b+1]; hi-lo > 1 {
				radixSortSoA(keys[lo:hi], ranks[lo:hi], kAlt[lo:hi], rAlt[lo:hi], d+1)
			}
		}
		return
	}
}

// insertionSortSoA finishes a small bucket with branch-predictable integer
// comparisons on the precomputed rank column, shifting both columns in step.
func insertionSortSoA(keys []sfc.Key, ranks []sfc.Rank128) {
	for i := 1; i < len(ranks); i++ {
		r, k := ranks[i], keys[i]
		j := i - 1
		for j >= 0 && r.Less(ranks[j]) {
			ranks[j+1] = ranks[j]
			keys[j+1] = keys[j]
			j--
		}
		ranks[j+1] = r
		keys[j+1] = k
	}
}

// LocalSortCost returns the modeled memory traffic in bytes of TreeSorting n
// local elements: one read+write pass per effective level, with the number
// of effective levels bounded by the depth at which buckets become
// singletons (log_{2^dim} n) and by the tree depth.
func LocalSortCost(n int, dim int) int64 {
	if n < 2 {
		return 0
	}
	levels := math.Ceil(math.Log2(float64(n)) / float64(dim))
	if levels > sfc.MaxLevel {
		levels = sfc.MaxLevel
	}
	if levels < 1 {
		levels = 1
	}
	return int64(2*n*KeyBytes) * int64(levels)
}

// IsSorted reports whether keys are in curve order: their ranks are
// non-decreasing.
func IsSorted(curve *sfc.Curve, keys []sfc.Key) bool {
	var prev sfc.Rank128
	for _, k := range keys {
		r := curve.Rank(k)
		if r.Less(prev) {
			return false
		}
		prev = r
	}
	return true
}

// ChargeLocalSort performs a local TreeSort and charges its modeled cost to
// the rank's clock.
func ChargeLocalSort(c *comm.Comm, curve *sfc.Curve, keys []sfc.Key) {
	TreeSort(curve, keys)
	c.Compute(LocalSortCost(len(keys), curve.Dim))
}
