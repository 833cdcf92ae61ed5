package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/octree"
	"optipart/internal/sfc"
)

// TestSplittersFromDistribution: for any contiguous-in-curve-order
// placement of sorted keys — including empty ranks — the derived splitters
// must assign every key to the rank currently holding it.
func TestSplittersFromDistribution(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	rng := rand.New(rand.NewSource(11))
	keys := octree.RandomKeys(rng, 4000, 3, octree.Normal, 2, 12)
	sort.Slice(keys, func(i, j int) bool { return curve.Compare(keys[i], keys[j]) < 0 })

	const p = 7
	// Deliberately skewed cuts, with rank 3 left empty.
	cuts := []int{0, 900, 950, 2100, 2100, 2500, 3999, len(keys)}
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		local := keys[cuts[c.Rank()]:cuts[c.Rank()+1]]
		sp := SplittersFromDistribution(c, curve, local)
		if got := sp.P(); got != p {
			t.Errorf("P() = %d, want %d", got, p)
		}
		for _, k := range local {
			if owner := sp.Owner(k); owner != c.Rank() {
				t.Errorf("key %v owned by %d, want holder %d", k, owner, c.Rank())
			}
		}
		// The induced quality must count exactly the current placement.
		q := EvaluateQuality(c, curve, local, sp)
		if q.N != int64(len(keys)) {
			t.Errorf("quality N = %d, want %d", q.N, len(keys))
		}
		if q.Wmax != 3999-2500 {
			t.Errorf("Wmax = %d, want %d", q.Wmax, 3999-2500)
		}
		if q.Wmin != 0 {
			t.Errorf("Wmin = %d, want 0 (rank 3 is empty)", q.Wmin)
		}
	})
}

// TestSplittersFromDistributionSingleRank: p=1 has no separators; the one
// rank owns everything.
func TestSplittersFromDistributionSingleRank(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	rng := rand.New(rand.NewSource(3))
	keys := octree.RandomKeys(rng, 50, 3, octree.Uniform, 2, 8)
	sort.Slice(keys, func(i, j int) bool { return curve.Compare(keys[i], keys[j]) < 0 })
	comm.Run(1, comm.CostModel{}, func(c *comm.Comm) {
		sp := SplittersFromDistribution(c, curve, keys)
		if sp.P() != 1 || len(sp.Seps) != 0 {
			t.Fatalf("P() = %d with %d separators, want 1 with 0", sp.P(), len(sp.Seps))
		}
		for _, k := range keys {
			if sp.Owner(k) != 0 {
				t.Fatalf("key %v not owned by the only rank", k)
			}
		}
	})
}

// TestSplittersFromDistributionAllEmpty: with no data anywhere every
// separator is the infinity sentinel and every range is empty.
func TestSplittersFromDistributionAllEmpty(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 2)
	const p = 5
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		sp := SplittersFromDistribution(c, curve, nil)
		for i, sep := range sp.Seps {
			if !IsInf(sep) {
				t.Errorf("separator %d = %v, want InfKey", i, sep)
			}
		}
		ranges := sp.Ranges(nil)
		for r := 0; r < p; r++ {
			if ranges[r] != ranges[r+1] {
				t.Errorf("rank %d has a non-empty range on an empty world", r)
			}
		}
	})
}

// TestSplittersFromDistributionOneHolder: every key on one middle rank. The
// ranks below inherit the holder's first key as their separator, so they own
// nothing, and the ranks above collapse to empty InfKey ranges.
func TestSplittersFromDistributionOneHolder(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	rng := rand.New(rand.NewSource(8))
	keys := octree.RandomKeys(rng, 200, 3, octree.Normal, 2, 10)
	sort.Slice(keys, func(i, j int) bool { return curve.Compare(keys[i], keys[j]) < 0 })
	const p, holder = 6, 3
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		var local []sfc.Key
		if c.Rank() == holder {
			local = keys
		}
		sp := SplittersFromDistribution(c, curve, local)
		for _, k := range keys {
			if owner := sp.Owner(k); owner != holder {
				t.Errorf("key %v owned by %d, want %d", k, owner, holder)
			}
		}
		ranges := sp.Ranges(keys)
		for r := 0; r < p; r++ {
			n := ranges[r+1] - ranges[r]
			want := 0
			if r == holder {
				want = len(keys)
			}
			if n != want {
				t.Errorf("rank %d range holds %d keys, want %d", r, n, want)
			}
		}
	})
}

// TestSplittersFromDistributionDuplicateBoundary: duplicate keys straddling
// a rank boundary are legal only when every copy lives downstream (ranges
// are half-open at the separator). The derived splitters must keep all
// copies on their holder.
func TestSplittersFromDistributionDuplicateBoundary(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	rng := rand.New(rand.NewSource(21))
	base := octree.RandomKeys(rng, 100, 3, octree.Uniform, 3, 9)
	sort.Slice(base, func(i, j int) bool { return curve.Compare(base[i], base[j]) < 0 })
	base = slices.Compact(base) // only the cut key may be duplicated
	// Triplicate the key at the cut so rank 1 starts with a run of equals.
	cut := len(base) / 3
	keys := append(append(append([]sfc.Key(nil), base[:cut+1]...), base[cut], base[cut]), base[cut+1:]...)
	const p = 3
	cuts := []int{0, cut, 2 * len(keys) / 3, len(keys)}
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		local := keys[cuts[c.Rank()]:cuts[c.Rank()+1]]
		sp := SplittersFromDistribution(c, curve, local)
		for _, k := range local {
			if owner := sp.Owner(k); owner != c.Rank() {
				t.Errorf("key %v owned by %d, want holder %d", k, owner, c.Rank())
			}
		}
		ranges := sp.Ranges(keys)
		for r := 0; r <= p; r++ {
			if ranges[r] != cuts[r] {
				t.Errorf("range boundary %d = %d, want %d", r, ranges[r], cuts[r])
			}
		}
	})
}
