// Package hygieneok uses the blessed replacements: the apihygiene analyzer
// must stay silent on every function here.
package hygieneok

import (
	"errors"
	"slices"

	"optipart/internal/sfc"
)

// sortGeneric sorts with the generic slices functions.
func sortGeneric(xs []int) {
	slices.Sort(xs)
	slices.SortFunc(xs, func(a, b int) int { return a - b })
}

// hoistedCurve constructs the curve once, outside the loop.
func hoistedCurve(n int) []uint64 {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, curve.Index(sfc.RootKey))
	}
	return out
}

// errPanic carries a typed error value.
func errPanic(n int) {
	if n < 0 {
		panic(errors.New("hygieneok: negative count"))
	}
}

// rethrow re-panics a recovered value whose dynamic type is unknown.
func rethrow(f func()) {
	defer func() {
		if r := recover(); r != nil {
			panic(r)
		}
	}()
	f()
}

// orderByRank sorts by curve rank and searches by rank, the one order
// outside internal/sfc. Rank128.Less is an integer compare, not the
// tree-walking order.
func orderByRank(curve *sfc.Curve, keys []sfc.Key, q sfc.Key) int {
	slices.SortFunc(keys, func(a, b sfc.Key) int {
		ra, rb := curve.Rank(a), curve.Rank(b)
		switch {
		case ra.Less(rb):
			return -1
		case rb.Less(ra):
			return 1
		}
		return 0
	})
	return curve.LowerBoundKeys(keys, curve.Rank(q))
}
