package psort_test

import (
	"math/rand"
	"testing"

	"optipart/internal/octree"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// TestRadixMatchesComparator is the seed-equivalence guarantee of the
// rank-radix TreeSort: on every input — random, all-equal, already-sorted,
// reversed, duplicate-heavy — its output is element-for-element identical to
// the paper-literal tree-walking TreeSortComparator, for both curves and
// both dimensions.
func TestRadixMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			for _, n := range []int{0, 1, 2, psort.InsertionCutoff, psort.InsertionCutoff + 1, 100, 5000} {
				keys := octree.RandomKeys(rng, n, dim, octree.Normal, 0, 18)
				checkEquivalent(t, curve, keys, "random")

				if n > 0 {
					// All equal.
					eq := make([]sfc.Key, n)
					for i := range eq {
						eq[i] = keys[0]
					}
					checkEquivalent(t, curve, eq, "all-equal")

					// Already sorted, then reversed.
					sorted := append([]sfc.Key(nil), keys...)
					psort.TreeSortComparator(curve, sorted)
					checkEquivalent(t, curve, sorted, "sorted")
					rev := make([]sfc.Key, n)
					for i := range rev {
						rev[i] = sorted[n-1-i]
					}
					checkEquivalent(t, curve, rev, "reversed")

					// Duplicate-heavy: few distinct values.
					dup := make([]sfc.Key, n)
					for i := range dup {
						dup[i] = keys[rng.Intn((n+3)/4)]
					}
					checkEquivalent(t, curve, dup, "duplicates")
				}
			}

			// Ancestor chains stress the pre-order tiebreak: a node must
			// precede its descendants even when their rank digit strings
			// share a long prefix.
			deep := octree.RandomKeys(rng, 200, dim, octree.Uniform, 10, sfc.MaxLevel)
			var chain []sfc.Key
			for _, k := range deep {
				chain = append(chain, k)
				for l := int(k.Level) - 1; l >= 0; l -= 5 {
					chain = append(chain, k.Ancestor(uint8(l)))
				}
			}
			checkEquivalent(t, curve, chain, "ancestor-chains")
		}
	}
}

func checkEquivalent(t *testing.T, curve *sfc.Curve, keys []sfc.Key, label string) {
	t.Helper()
	want := append([]sfc.Key(nil), keys...)
	got := append([]sfc.Key(nil), keys...)
	psort.TreeSortComparator(curve, want)
	psort.TreeSort(curve, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v dim=%d %s n=%d: radix and comparator outputs differ at %d: %v vs %v",
				curve.Kind, curve.Dim, label, len(keys), i, got[i], want[i])
		}
	}
	if !psort.IsSorted(curve, got) {
		t.Fatalf("%v dim=%d %s: output not in curve order", curve.Kind, curve.Dim, label)
	}
}

// TestTreeSortPoolReuse runs many sorts of varying sizes back to back so the
// pooled buffers are recycled across calls with stale contents; any
// dependence on buffer zeroing would corrupt the output.
func TestTreeSortPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		keys := octree.RandomKeys(rng, n, 3, octree.LogNormal, 1, 20)
		checkEquivalent(t, curve, keys, "pool-reuse")
	}
}
