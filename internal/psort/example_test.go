package psort_test

import (
	"fmt"

	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// ExampleTreeSort sorts octant keys along the Hilbert curve with the
// paper's Algorithm 1.
func ExampleTreeSort() {
	curve := sfc.NewCurve(sfc.Hilbert, 2)
	keys := []sfc.Key{
		curve.KeyAtIndex(9, 3),
		curve.KeyAtIndex(2, 3),
		curve.KeyAtIndex(5, 3),
	}
	psort.TreeSort(curve, keys)
	for _, k := range keys {
		fmt.Println(curve.Index(k))
	}
	// Output:
	// 2
	// 5
	// 9
}
