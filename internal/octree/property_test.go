package octree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"optipart/internal/sfc"
)

// TestCompleteMinimal checks minimality: removing any leaf coarser than the
// deepest seeds would be possible only if the leaf contains no seed; in a
// minimal tree every refined node (a leaf's parent that is not the root)
// exists because some seed forced it. We verify the equivalent statement:
// coarsening any complete sibling family would swallow a seed's resolution
// cell or the family is not complete.
func TestCompleteMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	seeds := make([]sfc.Key, 30)
	for i := range seeds {
		seeds[i] = RandomPoint(rng, 3, Normal)
	}
	maxLevel := uint8(6)
	leaves := Complete(curve, seeds, maxLevel)
	tree := New(curve, leaves)
	// Every leaf deeper than level 0 must have an ancestor-sibling subtree
	// containing a seed (otherwise its parent need not have been split).
	for _, k := range leaves {
		if k.Level == 0 {
			continue
		}
		parent := k.Parent()
		hasSeed := false
		for _, s := range seeds {
			if parent.Contains(s.Ancestor(maxLevel)) {
				hasSeed = true
				break
			}
		}
		if !hasSeed {
			t.Fatalf("leaf %v exists although its parent %v holds no seed: not minimal", k, parent)
		}
	}
	_ = tree
}

func TestLinearizePreordersAnyInput(t *testing.T) {
	f := func(raw []uint32) bool {
		curve := sfc.NewCurve(sfc.Morton, 3)
		keys := make([]sfc.Key, 0, len(raw)/4)
		for i := 0; i+3 < len(raw); i += 4 {
			level := uint8(raw[i+3]) % (sfc.MaxLevel + 1)
			mask := ^uint32(1<<(sfc.MaxLevel-int(level))-1) & (1<<sfc.MaxLevel - 1)
			keys = append(keys, sfc.Key{
				X: raw[i] & mask, Y: raw[i+1] & mask, Z: raw[i+2] & mask, Level: level,
			})
		}
		out := Linearize(curve, keys)
		return IsLinear(curve, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSurfaceAreaScaleInvariance(t *testing.T) {
	// Measuring the same cells at a deeper resolution scales the area by
	// 2^(dim-1) per extra level.
	curve := sfc.NewCurve(sfc.Morton, 3)
	cells := []sfc.Key{sfc.RootKey.Child(0), sfc.RootKey.Child(1)}
	a4 := SurfaceArea(curve, cells, 4)
	a5 := SurfaceArea(curve, cells, 5)
	if a5 != 4*a4 {
		t.Fatalf("area at depth 5 = %d, want 4x depth-4 area %d", a5, a4)
	}
}

func TestSurfaceAreaPanicsBelowResolution(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for cells finer than measurement depth")
		}
	}()
	curve := sfc.NewCurve(sfc.Morton, 2)
	cells := []sfc.Key{sfc.RootKey.Child(0).Child(0)} // level 2
	SurfaceArea(curve, cells, 1)
}

func TestWithCurveReorders(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	tree := AdaptiveMesh(rng, 100, 3, Normal, 6)
	hilbert := sfc.NewCurve(sfc.Hilbert, 3)
	ht := tree.WithCurve(hilbert)
	if !slices.IsSortedFunc(ht.Leaves, hilbert.Compare) {
		t.Fatal("WithCurve output not in new curve order")
	}
	if ht.Len() != tree.Len() {
		t.Fatal("WithCurve changed the leaf set size")
	}
	// The original is untouched.
	if !slices.IsSortedFunc(tree.Leaves, tree.Curve.Compare) {
		t.Fatal("WithCurve disturbed the original tree")
	}
}
