package partition

import (
	"math/rand"
	"sort"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/psort"
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
		psort.TreeSort(curve, keys)
		// Random separators drawn from the same distribution, sorted.
		seps := octree.RandomKeys(rng, 7, 3, octree.Uniform, 1, 10)
		psort.TreeSort(curve, seps)
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
	psort.TreeSort(curve, keys)
	seps := octree.RandomKeys(rng, 5, 3, octree.Uniform, 1, 8)
	psort.TreeSort(curve, seps)
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

// directQuality is the sequential reference for Algorithm 2: Owner per key
// and per same-size face neighbour.
func directQuality(sp *Splitters, keys []sfc.Key) Quality {
	p := sp.P()
	work := make([]int64, p)
	bdy := make([]int64, p)
	for _, k := range keys {
		o := sp.Owner(k)
		work[o]++
		for _, f := range octree.Faces(sp.Curve.Dim) {
			nk, ok := octree.FaceNeighbor(k, f)
			if ok && sp.Owner(nk) != o {
				bdy[o]++
				break
			}
		}
	}
	var q Quality
	q.Wmin, q.Cmin = 1<<62, 1<<62
	for r := 0; r < p; r++ {
		q.N += work[r]
		q.Ctot += bdy[r]
		q.Wmax = max(q.Wmax, work[r])
		q.Wmin = min(q.Wmin, work[r])
		q.Cmax = max(q.Cmax, bdy[r])
		q.Cmin = min(q.Cmin, bdy[r])
	}
	return q
}

// TestEvaluateQualityMatchesDirectCount: the distributed Algorithm 2 must
// agree with a straightforward sequential evaluation (Owner per key and per
// neighbor), on curve-ordered local arrays and on shuffled ones — the
// kernel's carried owner hint is an optimization, not an ordering
// requirement — and at the edges of its (keys, separator ranks) domain:
// elements missing face neighbours on the domain boundary, and the root
// octant, which has none and scans on the span sentinels alone.
func TestEvaluateQualityMatchesDirectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3200))
	morton3 := sfc.NewCurve(sfc.Morton, 3)
	hilbert2 := sfc.NewCurve(sfc.Hilbert, 2)
	keys3 := octree.RandomKeys(rng, 1200, 3, octree.Normal, 2, 10)
	psort.TreeSort(morton3, keys3)
	keys2 := octree.RandomKeys(rng, 900, 2, octree.Normal, 2, 9)
	psort.TreeSort(hilbert2, keys2)
	coarse := []sfc.Key{keys3[300].Ancestor(keys3[300].Level - 1), keys3[800].Ancestor(keys3[800].Level - 2)}
	psort.TreeSort(morton3, coarse)
	seps2 := []sfc.Key{keys2[200], keys2[450].Parent(), keys2[700]}
	psort.TreeSort(hilbert2, seps2)
	var grid []sfc.Key // every level-2 octant: 56 of the 64 touch the domain boundary
	for i := uint64(0); i < 64; i++ {
		grid = append(grid, morton3.KeyAtIndex(i, 2))
	}
	root := []sfc.Key{sfc.RootKey}

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
		{"domain boundary", morton3, grid, []sfc.Key{grid[13], grid[40].Parent(), grid[51]}},
		{"root alone, first partition", morton3, root, []sfc.Key{sfc.RootKey.Child(0), InfKey}},
		{"root alone, last partition", morton3, root, []sfc.Key{sfc.RootKey}},
	}
	for _, tc := range cases {
		sp := &Splitters{Curve: tc.curve, Seps: tc.seps}
		want := directQuality(sp, tc.keys)

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
	if _, lo, hi := morton3.RankWithSpan(sfc.RootKey); lo != sfc.MaxRank128 || hi != (sfc.Rank128{}) {
		t.Errorf("root octant span (%v, %v), want the sentinels (MaxRank128, zero)", lo, hi)
	}
}

// TestSelectorRungsMatchExactSpans is the rung-level oracle for the span
// boxes: every rung descend visits must price the same Quality as
// scanCounts over columns built directly with RankWithSpan for the same
// separators, and after each rung every span column entry is either the
// exact span or a box (IsSpanBox) that contains it. Raw keys at levels
// 2–18 make many boxes straddle a bracket; the 2:1-balanced mesh is the
// linear octree the applications partition. Both curves, p in {1, 2, 7,
// 16}; each rank holds every p-th key of the sorted mesh, so the local
// runs interleave along the curve.
func TestSelectorRungsMatchExactSpans(t *testing.T) {
	var refined, boxes int
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		curve := sfc.NewCurve(kind, 3)
		raw := octree.RandomKeys(rand.New(rand.NewSource(4200)), 6000, 3, octree.Normal, 2, 18)
		psort.TreeSort(curve, raw)
		meshes := []struct {
			name string
			keys []sfc.Key
		}{{"raw", raw}, {"balanced", repartMesh(curve, 4201, 30, 6)}}
		for _, mesh := range meshes {
			for _, p := range []int{1, 2, 7, 16} {
				rungs := make([]int, p)
				comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
					var local []sfc.Key
					for i := c.Rank(); i < len(mesh.keys); i += p {
						local = append(local, mesh.keys[i])
					}
					ranks := make([]sfc.Rank128, len(local))
					lo := make([]sfc.Rank128, len(local))
					hi := make([]sfc.Rank128, len(local))
					for i, k := range local {
						ranks[i], lo[i], hi[i] = curve.RankWithSpan(k)
					}
					a := psort.GetArena()
					defer psort.PutArena(a)
					sel := newSelector(c, curve, local, ranks, a, 0)
					sel.descend(func(cand *Splitters, q Quality) bool {
						counts := make([]int64, 2*p)
						scanCounts(curve, local, ranks, lo, hi, cand.ranks(), counts)
						if want := foldQuality(comm.Allreduce(c, counts, 8, comm.SumI64)); q != want {
							t.Errorf("%v %s p=%d rung %d: selector prices %+v, exact spans %+v", kind, mesh.name, p, rungs[c.Rank()], q, want)
						}
						// Every rank keeps descending after a failure, so the
						// collectives stay matched; one report per rung.
						for i := range local {
							exact := !sfc.IsSpanBox(sel.lo[i])
							if exact && (sel.lo[i] != lo[i] || sel.hi[i] != hi[i]) ||
								!exact && (lo[i].Less(sel.lo[i]) || sel.hi[i].Less(hi[i])) {
								t.Errorf("%v %s p=%d: element %d holds (%v, %v), exact span (%v, %v)", kind, mesh.name, p, i, sel.lo[i], sel.hi[i], lo[i], hi[i])
								break
							}
						}
						rungs[c.Rank()]++
						return true
					})
					if c.Rank() == 0 {
						for i := range local {
							if sfc.IsSpanBox(sel.lo[i]) {
								boxes++
							} else if local[i].Level > 0 {
								refined++
							}
						}
					}
				})
				if rungs[0] == 0 {
					t.Errorf("%v %s p=%d: descend visited no rung", kind, mesh.name, p)
				}
			}
		}
	}
	if refined == 0 || boxes == 0 {
		t.Errorf("rank 0 ended with %d refined spans and %d boxes: the oracle saw only one kind", refined, boxes)
	}
}

// TestPartitionQualityMatchesDirectCount: Partition prices its rungs from
// the selector's cached rank and span columns; the adopted placement's
// quality must equal the direct Owner count of its splitters, at a per-rank
// size where the columns are filled across the pool, and the result must
// be identical at pool widths 1 and 2.
func TestPartitionQualityMatchesDirectCount(t *testing.T) {
	const p = 2
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	locals := make([][]sfc.Key, p)
	var all []sfc.Key
	for r := range locals {
		rng := rand.New(rand.NewSource(int64(3400 + r)))
		locals[r] = octree.RandomKeys(rng, parCutoff, 3, octree.Normal, 2, 12)
		all = append(all, locals[r]...)
	}
	run := func(workers int) *Result {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		var res *Result
		comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
			local := append([]sfc.Key(nil), locals[c.Rank()]...)
			r := Partition(c, local, Options{Curve: curve, Mode: ModelDriven, Machine: machine.Clemson32(), SkipExchange: true})
			if c.Rank() == 0 {
				res = r
			}
		})
		return res
	}
	// Width 2 first: a width-1 run would leave its columns, which equal
	// width 2's, in the pooled arenas.
	pooled, serial := run(2), run(1)
	if want := directQuality(pooled.Splitters, all); pooled.Quality != want {
		t.Fatalf("Partition quality %+v != direct count %+v of its splitters", pooled.Quality, want)
	}
	if pooled.Quality != serial.Quality || pooled.Rounds != serial.Rounds {
		t.Fatalf("pool width 2: quality %+v after %d rounds, width 1: %+v after %d", pooled.Quality, pooled.Rounds, serial.Quality, serial.Rounds)
	}
	for i, sep := range serial.Splitters.Seps {
		if pooled.Splitters.Seps[i] != sep {
			t.Fatalf("separator %d differs between pool widths 1 and 2", i)
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
