package octree

import (
	"math/rand"
	"slices"
	"testing"

	"optipart/internal/psort"
	"optipart/internal/sfc"
)

func TestLinearizeRemovesDuplicatesAndAncestors(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	k := sfc.Key{X: 1 << 28, Y: 1 << 27, Z: 0, Level: 5}
	keys := []sfc.Key{
		k,
		k, // duplicate
		k.Ancestor(2),
		k.Ancestor(4),
		k.Child(3),       // descendant of k: k must be dropped
		sfc.RootKey,      // ancestor of everything
		{X: 0, Level: 5}, // unrelated
	}
	out := Linearize(curve, keys)
	want := map[sfc.Key]bool{
		{X: 0, Level: 5}: true,
		k.Child(3):       true,
	}
	if len(out) != len(want) {
		t.Fatalf("Linearize kept %d keys (%v), want %d", len(out), out, len(want))
	}
	for _, kk := range out {
		if !want[kk] {
			t.Fatalf("unexpected survivor %v", kk)
		}
	}
	if !IsLinear(curve, out) {
		t.Fatal("output not linear")
	}
}

func TestLinearizeEmpty(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 2)
	if out := Linearize(curve, nil); len(out) != 0 {
		t.Fatalf("Linearize(nil) = %v", out)
	}
}

func TestLinearizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		curve := sfc.NewCurve(kind, 3)
		for trial := 0; trial < 50; trial++ {
			keys := RandomKeys(rng, 200, 3, Uniform, 1, 6)
			out := Linearize(curve, keys)
			if !IsLinear(curve, out) {
				t.Fatalf("%v: Linearize output not linear", kind)
			}
			// Every input key must be represented: itself or a descendant
			// survives.
			tree := &Tree{Curve: curve, Leaves: out}
			for _, k := range keys {
				found := false
				for _, o := range out {
					if k.Contains(o) || o.Contains(k) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%v: key %v lost by Linearize", kind, k)
				}
			}
			_ = tree
		}
	}
}

func TestCompleteCoversDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			seeds := make([]sfc.Key, 100)
			for i := range seeds {
				seeds[i] = RandomPoint(rng, dim, Normal)
			}
			leaves := Complete(curve, seeds, 8)
			if !IsLinear(curve, leaves) {
				t.Fatalf("%v dim=%d: Complete output not linear", kind, dim)
			}
			if !IsComplete(curve, leaves) {
				t.Fatalf("%v dim=%d: Complete output does not cover the domain", kind, dim)
			}
			// Every leaf counts: a measure too large for one word must not
			// vanish from the sum.
			if IsComplete(curve, leaves[1:]) || IsComplete(curve, leaves[:len(leaves)-1]) {
				t.Fatalf("%v dim=%d: IsComplete holds without a leaf", kind, dim)
			}
			// Every seed's level-8 ancestor cell must be a leaf (the seed is
			// resolved at maxLevel).
			tree := &Tree{Curve: curve, Leaves: leaves}
			for _, s := range seeds {
				i := tree.FindLeaf(s)
				if i < 0 {
					t.Fatalf("%v dim=%d: seed %v not inside any leaf", kind, dim, s)
				}
				if leaves[i].Level != 8 {
					// Seeds force refinement down to maxLevel unless another
					// seed shares the cell; either way the leaf must contain
					// the seed.
					if !leaves[i].Contains(s.Ancestor(8)) {
						t.Fatalf("%v dim=%d: leaf %v does not resolve seed %v", kind, dim, leaves[i], s)
					}
				}
			}
		}
	}
}

func TestCompleteNoSeedsIsRoot(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	leaves := Complete(curve, nil, 8)
	if len(leaves) != 1 || leaves[0] != sfc.RootKey {
		t.Fatalf("Complete with no seeds = %v, want [root]", leaves)
	}
}

func TestFindLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	seeds := make([]sfc.Key, 60)
	for i := range seeds {
		seeds[i] = RandomPoint(rng, 3, LogNormal)
	}
	tree := &Tree{Curve: curve, Leaves: Complete(curve, seeds, 7)}
	for trial := 0; trial < 3000; trial++ {
		q := RandomPoint(rng, 3, Uniform)
		i := tree.FindLeaf(q)
		if i < 0 {
			t.Fatalf("no leaf contains %v in a complete tree", q)
		}
		if !tree.Leaves[i].Contains(q) {
			t.Fatalf("FindLeaf(%v) = %v which does not contain it", q, tree.Leaves[i])
		}
	}
	// A key coarser than the covering leaf is not contained in any leaf.
	if got := tree.FindLeaf(sfc.RootKey); got != -1 {
		t.Fatalf("FindLeaf(root) = %d, want -1", got)
	}
}

// TestFindLeafMatchesScan checks FindLeaf against a brute-force Contains
// scan on linear trees with holes (random leaves dropped from a linearized
// key set, and from a complete mesh re-sorted by WithCurve), for both
// curves and both dimensions. The queries are the root, every leaf's
// ancestors and a descendant, level-30 points, and random keys at every
// level, many of them in the holes.
func TestFindLeafMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	scan := func(leaves []sfc.Key, q sfc.Key) int {
		for i, k := range leaves {
			if k.Contains(q) {
				return i
			}
		}
		return -1
	}
	holes := func(keys []sfc.Key) []sfc.Key {
		return slices.DeleteFunc(keys, func(sfc.Key) bool { return rng.Intn(3) == 0 })
	}
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			mesh := AdaptiveMesh(rng, 40, dim, LogNormal, 7).WithCurve(curve)
			trees := map[string]*Tree{
				"linearized": New(curve, holes(Linearize(curve, RandomKeys(rng, 300, dim, Normal, 1, 9)))),
				"WithCurve":  New(curve, holes(mesh.Leaves)),
			}
			for name, tree := range trees {
				if !IsLinear(curve, tree.Leaves) || IsComplete(curve, tree.Leaves) {
					t.Fatalf("%v dim=%d %s: want a linear tree with holes", kind, dim, name)
				}
				queries := []sfc.Key{sfc.RootKey}
				for _, k := range tree.Leaves {
					queries = append(queries, k.Ancestor(uint8(rng.Intn(int(k.Level)+1))), k.Child(rng.Intn(1<<dim)))
				}
				for i := 0; i < 500; i++ {
					queries = append(queries, RandomPoint(rng, dim, Uniform))
				}
				queries = append(queries, RandomKeys(rng, 500, dim, Uniform, 0, sfc.MaxLevel)...)
				for _, q := range queries {
					if got, want := tree.FindLeaf(q), scan(tree.Leaves, q); got != want {
						t.Fatalf("%v dim=%d %s: FindLeaf(%v) = %d, scan finds %d", kind, dim, name, q, got, want)
					}
				}
			}
		}
	}
}

func TestFaceNeighbor(t *testing.T) {
	k := sfc.Key{X: 0, Y: 0, Z: 0, Level: 1} // lower corner octant
	if _, ok := FaceNeighbor(k, Face{0, false}); ok {
		t.Fatal("neighbor across domain boundary should not exist")
	}
	nk, ok := FaceNeighbor(k, Face{0, true})
	if !ok || nk.X != k.Size() || nk.Y != 0 || nk.Level != 1 {
		t.Fatalf("bad +x neighbor: %v ok=%v", nk, ok)
	}
	back, ok := FaceNeighbor(nk, Face{0, false})
	if !ok || back != k {
		t.Fatalf("neighbor round-trip failed: %v", back)
	}
}

// TestFacesFixedTable: Faces is called once per key by every neighbor scan,
// so it hands out a view of one table instead of a fresh slice — in the
// documented order, and with no spare capacity for an append to write into.
func TestFacesFixedTable(t *testing.T) {
	want := []Face{{0, false}, {0, true}, {1, false}, {1, true}, {2, false}, {2, true}}
	for _, dim := range []int{2, 3} {
		got := Faces(dim)
		if !slices.Equal(got, want[:2*dim]) {
			t.Fatalf("Faces(%d) = %v, want %v", dim, got, want[:2*dim])
		}
		_ = append(got, Face{9, true})
		if !slices.Equal(Faces(3), want) {
			t.Fatalf("append to Faces(%d) clobbered the table: %v", dim, Faces(3))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { facesSink = Faces(3) }); allocs != 0 {
		t.Fatalf("Faces(3) allocated %.1f times per call, want 0", allocs)
	}
}

// facesSink makes the measured result escape, so a fresh slice per call
// could not hide on the stack.
var facesSink []Face

// neighborLeaves lists the face neighbors of leaf i, face by face.
func neighborLeaves(t *Tree, i int) []int {
	var out []int
	for _, f := range Faces(t.Dim()) {
		if nk, ok := FaceNeighbor(t.Leaves[i], f); ok {
			out = append(out, t.FaceLeaves(nk, f)...)
		}
	}
	return out
}

func TestNeighborLeavesUniform(t *testing.T) {
	// Uniform level-2 quadtree: interior cells have 4 neighbors, corners 2.
	curve := sfc.NewCurve(sfc.Morton, 2)
	var leaves []sfc.Key
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			leaves = append(leaves, sfc.RootKey.Child(a).Child(b))
		}
	}
	psort.TreeSort(curve, leaves)
	tree := &Tree{Curve: curve, Leaves: leaves}
	counts := map[int]int{}
	for i := range leaves {
		counts[len(neighborLeaves(tree, i))]++
	}
	// 4x4 grid: 4 corners with 2, 8 edges with 3, 4 interior with 4.
	if counts[2] != 4 || counts[3] != 8 || counts[4] != 4 {
		t.Fatalf("neighbor count histogram %v, want map[2:4 3:8 4:4]", counts)
	}
}

func TestNeighborLeavesSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tree := Balance21(AdaptiveMesh(rng, 40, 3, Normal, 6))
	for i := range tree.Leaves {
		for _, j := range neighborLeaves(tree, i) {
			found := false
			for _, back := range neighborLeaves(tree, j) {
				if back == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric adjacency: %d -> %d but not back", i, j)
			}
		}
	}
}

func TestBalance21(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, dim := range []int{2, 3} {
		tree := AdaptiveMesh(rng, 50, dim, LogNormal, 7)
		if IsBalanced21(tree) {
			// Log-normal trees at depth 7 are virtually always unbalanced;
			// if not, the test is vacuous but not wrong.
			t.Logf("dim=%d: tree already balanced (%d leaves)", dim, tree.Len())
		}
		b := Balance21(tree)
		if !IsBalanced21(b) {
			t.Fatalf("dim=%d: Balance21 output not balanced", dim)
		}
		if !IsLinear(b.Curve, b.Leaves) || !IsComplete(b.Curve, b.Leaves) {
			t.Fatalf("dim=%d: Balance21 output not a complete linear tree", dim)
		}
		if b.Len() < tree.Len() {
			t.Fatalf("dim=%d: balancing shrank the tree (%d -> %d)", dim, tree.Len(), b.Len())
		}
	}
}

// rippleBalance21 is the reference 2:1 ripple, independent of ranks: each
// round finds neighbors by a binary search over the tree-walking Compare,
// appends every split leaf's children in label order, and re-linearizes the
// whole sequence sorted by Compare.
func rippleBalance21(t *Tree) []sfc.Key {
	curve := t.Curve
	leaves := append([]sfc.Key(nil), t.Leaves...)
	for {
		split := map[int]bool{}
		for _, k := range leaves {
			for _, f := range Faces(curve.Dim) {
				nk, ok := FaceNeighbor(k, f)
				if !ok {
					continue
				}
				if j := compareFindLeaf(curve, leaves, nk); j >= 0 && int(leaves[j].Level) < int(k.Level)-1 {
					split[j] = true
				}
			}
		}
		if len(split) == 0 {
			return leaves
		}
		var next []sfc.Key
		for i, k := range leaves {
			if !split[i] {
				next = append(next, k)
				continue
			}
			for label := 0; label < curve.NumChildren(); label++ {
				next = append(next, k.Child(label))
			}
		}
		slices.SortFunc(next, curve.Compare)
		leaves = LinearizeSorted(next)
	}
}

// compareFindLeaf is FindLeaf over the tree-walking Compare: the last leaf
// not after q, if it contains q.
func compareFindLeaf(curve *sfc.Curve, leaves []sfc.Key, q sfc.Key) int {
	i, _ := slices.BinarySearchFunc(leaves, q, func(leaf, q sfc.Key) int {
		if curve.Compare(leaf, q) > 0 {
			return 1
		}
		return -1
	})
	if i > 0 && leaves[i-1].Contains(q) {
		return i - 1
	}
	return -1
}

// TestBalance21MatchesRipple: Balance21, which writes split leaves' children
// in curve order in place and finds neighbors by rank, produces leaf for
// leaf the reference ripple's tree, on random meshes for both curves and
// both dimensions, and leaves an already balanced tree as it is.
func TestBalance21MatchesRipple(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			for trial := 0; trial < 3; trial++ {
				tree := AdaptiveMesh(rng, 30, dim, LogNormal, 8).WithCurve(curve)
				got := Balance21(tree)
				if want := rippleBalance21(tree); !slices.Equal(got.Leaves, want) {
					t.Fatalf("%v dim=%d trial %d: Balance21 differs from the ripple (%d vs %d leaves)",
						kind, dim, trial, got.Len(), len(want))
				}
				if got.Len() == tree.Len() {
					t.Fatalf("%v dim=%d trial %d: mesh was already balanced; the trial checks nothing", kind, dim, trial)
				}
				again := Balance21(got)
				if !slices.Equal(again.Leaves, got.Leaves) || !slices.Equal(rippleBalance21(got), got.Leaves) {
					t.Fatalf("%v dim=%d trial %d: a balanced tree changed", kind, dim, trial)
				}
			}
		}
	}
}

func TestSurfaceAreaUnitSquare(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 2)
	// One level-1 quadrant at depth 1: 4 faces of unit length.
	cells := []sfc.Key{sfc.RootKey.Child(0)}
	if got := SurfaceArea(curve, cells, 1); got != 4 {
		t.Fatalf("single quadrant area = %d, want 4", got)
	}
	// Two adjacent level-1 quadrants share one face: 4+4-2 = 6.
	cells = []sfc.Key{sfc.RootKey.Child(0), sfc.RootKey.Child(1)}
	if got := SurfaceArea(curve, cells, 1); got != 6 {
		t.Fatalf("two quadrants area = %d, want 6", got)
	}
	// The whole domain at depth 1: outline is 8 unit faces.
	cells = []sfc.Key{sfc.RootKey.Child(0), sfc.RootKey.Child(1), sfc.RootKey.Child(2), sfc.RootKey.Child(3)}
	if got := SurfaceArea(curve, cells, 1); got != 8 {
		t.Fatalf("full domain area = %d, want 8", got)
	}
}

func TestSurfaceAreaMixedLevels(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 2)
	// One level-1 quadrant plus a level-2 child of its neighbor, touching:
	// measured at depth 2, the quadrant has perimeter 8, the small cell 4,
	// and they share 1 unit face => 8 + 4 - 2 = 10.
	big := sfc.RootKey.Child(0)            // [0,half)^2
	small := sfc.RootKey.Child(1).Child(0) // anchored at x=half, touching big
	if got := SurfaceArea(curve, []sfc.Key{big, small}, 2); got != 10 {
		t.Fatalf("mixed-level area = %d, want 10", got)
	}
}

func TestRandomKeysLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	keys := RandomKeys(rng, 500, 3, Normal, 3, 6)
	for _, k := range keys {
		if k.Level < 3 || k.Level > 6 {
			t.Fatalf("key level %d out of [3,6]", k.Level)
		}
		if !k.Valid(3) {
			t.Fatalf("invalid key %v", k)
		}
	}
}

func TestDistributionsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mean := func(d Distribution) float64 {
		var sum float64
		for i := 0; i < 2000; i++ {
			k := RandomPoint(rng, 3, d)
			sum += float64(k.X) / float64(uint32(1)<<sfc.MaxLevel)
		}
		return sum / 2000
	}
	mu, mn, ml := mean(Uniform), mean(Normal), mean(LogNormal)
	if mu < 0.45 || mu > 0.55 {
		t.Fatalf("uniform mean %f, want ~0.5", mu)
	}
	if mn < 0.45 || mn > 0.55 {
		t.Fatalf("normal mean %f, want ~0.5", mn)
	}
	if ml > 0.25 {
		t.Fatalf("lognormal mean %f, want < 0.25 (mass near origin)", ml)
	}
}

func TestParseDistribution(t *testing.T) {
	for s, want := range map[string]Distribution{"uniform": Uniform, "Normal": Normal, "lognormal": LogNormal, "LogNormal": LogNormal} {
		if got, err := ParseDistribution(s); err != nil || got != want {
			t.Errorf("ParseDistribution(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"cauchy", "", "unknown", "log-normal"} {
		if _, err := ParseDistribution(s); err == nil {
			t.Errorf("ParseDistribution(%q) accepted", s)
		}
	}
}
