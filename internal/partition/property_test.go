package partition

import (
	"math/rand"
	"sort"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/sfc"
)

// TestOwnerMonotoneAlongCurve: for keys sorted along the curve, owners are
// non-decreasing — the property that makes the exchange a contiguous-range
// scatter.
func TestOwnerMonotoneAlongCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(3001))
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		curve := sfc.NewCurve(kind, 3)
		keys := octree.RandomKeys(rng, 2000, 3, octree.LogNormal, 1, 14)
		octree.Sort(curve, keys)
		// Random separators drawn from the same distribution, sorted.
		seps := octree.RandomKeys(rng, 7, 3, octree.Uniform, 1, 10)
		octree.Sort(curve, seps)
		sp := &Splitters{Curve: curve, Seps: seps}
		prev := 0
		for _, k := range keys {
			o := sp.Owner(k)
			if o < prev {
				t.Fatalf("%v: owner decreased along the curve: %d after %d", kind, o, prev)
			}
			prev = o
		}
	}
}

// TestRangesMatchOwner: Ranges and Owner must agree on every element.
func TestRangesMatchOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(3002))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := octree.RandomKeys(rng, 1500, 3, octree.Normal, 2, 12)
	octree.Sort(curve, keys)
	seps := octree.RandomKeys(rng, 5, 3, octree.Uniform, 1, 8)
	octree.Sort(curve, seps)
	seps = append(seps, InfKey) // include the sentinel
	sp := &Splitters{Curve: curve, Seps: seps}
	ranges := sp.Ranges(keys)
	if !sort.IntsAreSorted(ranges) {
		t.Fatalf("ranges not monotone: %v", ranges)
	}
	for r := 0; r < sp.P(); r++ {
		for i := ranges[r]; i < ranges[r+1]; i++ {
			if got := sp.Owner(keys[i]); got != r {
				t.Fatalf("element %d in range of rank %d but owned by %d", i, r, got)
			}
		}
	}
}

// TestPartitionConservesMultiset: the exchange must neither lose nor invent
// elements, including duplicates.
func TestPartitionConservesMultiset(t *testing.T) {
	p := 6
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	before := map[sfc.Key]int{}
	after := map[sfc.Key]int{}
	locals := make([][]sfc.Key, p)
	for r := 0; r < p; r++ {
		rng := rand.New(rand.NewSource(int64(3100 + r)))
		locals[r] = octree.RandomKeys(rng, 500, 3, octree.LogNormal, 1, 10)
		// Force duplicates across ranks.
		locals[r] = append(locals[r], sfc.Key{X: 1 << 29, Level: 1})
		for _, k := range locals[r] {
			before[k]++
		}
	}
	results := make([][]sfc.Key, p)
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		res := Partition(c, locals[c.Rank()], Options{
			Curve: curve, Mode: FlexibleTolerance, Tol: 0.25, Machine: machine.Titan(),
		})
		results[c.Rank()] = res.Local
	})
	for r := 0; r < p; r++ {
		for _, k := range results[r] {
			after[k]++
		}
	}
	if len(before) != len(after) {
		t.Fatalf("key support changed: %d vs %d", len(before), len(after))
	}
	for k, n := range before {
		if after[k] != n {
			t.Fatalf("multiplicity of %v changed: %d -> %d", k, n, after[k])
		}
	}
}

// TestEvaluateQualityMatchesDirectCount: the distributed Algorithm 2 must
// agree with a straightforward sequential evaluation (Owner per key and per
// neighbor), on curve-ordered local arrays and on shuffled ones — the
// kernel's carried owner hint is an optimization, not an ordering
// requirement — and at the edges of its (keys, separator ranks) domain.
func TestEvaluateQualityMatchesDirectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3200))
	morton3 := sfc.NewCurve(sfc.Morton, 3)
	hilbert2 := sfc.NewCurve(sfc.Hilbert, 2)
	keys3 := octree.RandomKeys(rng, 1200, 3, octree.Normal, 2, 10)
	octree.Sort(morton3, keys3)
	keys2 := octree.RandomKeys(rng, 900, 2, octree.Normal, 2, 9)
	octree.Sort(hilbert2, keys2)
	coarse := []sfc.Key{keys3[300].Ancestor(keys3[300].Level - 1), keys3[800].Ancestor(keys3[800].Level - 2)}
	octree.Sort(morton3, coarse)
	seps2 := []sfc.Key{keys2[200], keys2[450].Parent(), keys2[700]}
	octree.Sort(hilbert2, seps2)

	cases := []struct {
		name  string
		curve *sfc.Curve
		keys  []sfc.Key
		seps  []sfc.Key // non-decreasing along the curve
	}{
		{"coarse separators", morton3, keys3, coarse},
		{"p=1", morton3, keys3, nil},
		{"empty local", morton3, nil, coarse},
		{"all separators InfKey", morton3, keys3, []sfc.Key{InfKey, InfKey, InfKey}},
		{"n<p, repeated separator ranks", morton3, keys3[:3],
			[]sfc.Key{keys3[0], keys3[1], keys3[1], keys3[2], keys3[2], InfKey, InfKey}},
		{"dim 2", hilbert2, keys2, seps2},
	}
	for _, tc := range cases {
		sp := &Splitters{Curve: tc.curve, Seps: tc.seps}

		// Sequential reference.
		p := sp.P()
		work := make([]int64, p)
		bdy := make([]int64, p)
		for _, k := range tc.keys {
			o := sp.Owner(k)
			work[o]++
			for _, f := range octree.Faces(tc.curve.Dim) {
				nk, ok := octree.FaceNeighbor(k, f)
				if ok && sp.Owner(nk) != o {
					bdy[o]++
					break
				}
			}
		}
		var want Quality
		want.Wmin, want.Cmin = 1<<62, 1<<62
		for r := 0; r < p; r++ {
			want.N += work[r]
			want.Ctot += bdy[r]
			want.Wmax = comm.MaxI64(want.Wmax, work[r])
			want.Wmin = comm.MinI64(want.Wmin, work[r])
			want.Cmax = comm.MaxI64(want.Cmax, bdy[r])
			want.Cmin = comm.MinI64(want.Cmin, bdy[r])
		}

		// Distributed evaluation over 4 ranks holding arbitrary splits, in
		// curve order and then shuffled.
		var sorted, shuffled Quality
		comm.Run(4, comm.CostModel{}, func(c *comm.Comm) {
			var local []sfc.Key
			for i, k := range tc.keys {
				if i%4 == c.Rank() {
					local = append(local, k)
				}
			}
			qs := EvaluateQuality(c, tc.curve, local, sp)
			rand.New(rand.NewSource(int64(c.Rank()))).Shuffle(len(local), func(i, j int) {
				local[i], local[j] = local[j], local[i]
			})
			qu := EvaluateQuality(c, tc.curve, local, sp)
			if c.Rank() == 0 {
				sorted, shuffled = qs, qu
			}
		})
		if sorted != want {
			t.Errorf("%s: distributed quality %+v != sequential %+v", tc.name, sorted, want)
		}
		if shuffled != want {
			t.Errorf("%s: quality of shuffled local %+v != sequential %+v", tc.name, shuffled, want)
		}
	}
}

// TestModePrintsAndInf covers the small helpers.
func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{EqualWork, FlexibleTolerance, ModelDriven, Mode(99)} {
		if m.String() == "" {
			t.Fatalf("empty string for mode %d", int(m))
		}
	}
	if !IsInf(InfKey) || IsInf(sfc.RootKey) {
		t.Fatal("IsInf misbehaves")
	}
}

// TestToleranceMonotoneRounds: a larger tolerance never needs more
// refinement rounds.
func TestToleranceMonotoneRounds(t *testing.T) {
	rounds := func(tol float64) int {
		var got int
		comm.Run(8, comm.CostModel{}, func(c *comm.Comm) {
			rng := rand.New(rand.NewSource(int64(3300 + c.Rank())))
			local := octree.RandomKeys(rng, 800, 3, octree.Normal, 2, 14)
			res := Partition(c, local, Options{
				Curve: sfc.NewCurve(sfc.Hilbert, 3), Mode: FlexibleTolerance,
				Tol: tol, Machine: machine.Titan(), SkipExchange: true,
			})
			if c.Rank() == 0 {
				got = res.Rounds
			}
		})
		return got
	}
	if rounds(0.5) > rounds(0.05) {
		t.Fatal("looser tolerance required more refinement rounds")
	}
}
