package psort

import "optipart/internal/sfc"

// TreeSortComparator is the paper-literal tree-walking TreeSort: an MSD
// radix sort whose buckets are the children of the current octree node,
// permuted by the curve's Rh, with a comparator insertion sort below the
// cutoff. It is the reference implementation for the rank-equivalence tests
// (TreeSort must produce bit-identical output) and executable documentation
// of Algorithm 1; the package's TreeSort is the rank-radix formulation.
func TreeSortComparator(curve *sfc.Curve, keys []sfc.Key) {
	if len(keys) < 2 {
		return
	}
	scratch := make([]sfc.Key, len(keys))
	treeSortRec(curve, keys, scratch, 1, curve.RootState())
}

func treeSortRec(curve *sfc.Curve, a, scratch []sfc.Key, level int, st sfc.State) {
	if len(a) < 2 || level > sfc.MaxLevel {
		return
	}
	if len(a) <= insertionCutoff {
		insertionSort(curve, a)
		return
	}
	nch := curve.NumChildren()
	// Bucket 0 holds elements equal to the current node (Level < level);
	// bucket 1+pos holds the child visited at traversal position pos.
	var counts [9]int
	for _, k := range a {
		counts[bucketOf(curve, st, k, level)]++
	}
	var offs [10]int
	for b := 0; b <= nch; b++ {
		offs[b+1] = offs[b] + counts[b]
	}
	starts := offs // copy: offs is mutated below
	for _, k := range a {
		b := bucketOf(curve, st, k, level)
		scratch[starts[b]] = k
		starts[b]++
	}
	copy(a, scratch[:len(a)])
	for pos := 0; pos < nch; pos++ {
		lo, hi := offs[1+pos], offs[2+pos]
		if hi-lo > 1 {
			treeSortRec(curve, a[lo:hi], scratch[lo:hi], level+1, curve.Next(st, pos))
		}
	}
}

// bucketOf returns the TreeSort bucket of key k at the given subdivision
// level within a node of state st.
func bucketOf(curve *sfc.Curve, st sfc.State, k sfc.Key, level int) int {
	if int(k.Level) < level {
		return 0
	}
	return 1 + curve.PosOf(st, k.ChildLabel(level))
}

func insertionSort(curve *sfc.Curve, a []sfc.Key) {
	for i := 1; i < len(a); i++ {
		k := a[i]
		j := i - 1
		for j >= 0 && curve.Compare(k, a[j]) < 0 {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = k
	}
}
