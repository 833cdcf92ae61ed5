// Package hygienebad regresses the deliberate API decisions apihygiene
// pins: every marked line must be reported.
package hygienebad

import (
	"slices"
	"sort"

	"optipart/internal/sfc"
)

// sortReflect uses the retired reflection-based sort entry points.
func sortReflect(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want "sort\.Slice is reflection/interface-based"
	sort.Ints(xs)                                                // want "sort\.Ints is reflection/interface-based"
}

// searchReflect uses the interface-based binary search.
func searchReflect(n int, f func(int) bool) int {
	return sort.Search(n, f) // want "sort\.Search is reflection/interface-based"
}

// curvesInLoop constructs curves per iteration instead of hoisting.
func curvesInLoop(kinds []sfc.Kind) []*sfc.Curve {
	var out []*sfc.Curve
	for _, k := range kinds {
		out = append(out, sfc.NewCurve(k, 3)) // want "NewCurve inside a loop"
	}
	return out
}

// badPanic throws a bare string in library code.
func badPanic(n int) {
	if n < 0 {
		panic("hygienebad: negative count") // want "panic with a non-error string"
	}
}

// orderByCompare sorts and searches with the tree-walking reference order.
func orderByCompare(curve *sfc.Curve, keys []sfc.Key, q sfc.Key) (int, bool) {
	slices.SortFunc(keys, curve.Compare)                   // want "\(\*sfc\.Curve\)\.Compare walks the tree"
	return slices.BinarySearchFunc(keys, q, curve.Compare) // want "order keys by sfc\.Rank"
}

// compareOne calls Compare directly, and through a method expression.
func compareOne(curve *sfc.Curve, a, b sfc.Key) bool {
	cmp := (*sfc.Curve).Compare                            // want "\(\*sfc\.Curve\)\.Compare walks the tree"
	return curve.Compare(a, b) < 0 && cmp(curve, b, a) > 0 // want "search by rank"
}
