package sfc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyValid(t *testing.T) {
	cases := []struct {
		key  Key
		dim  int
		want bool
	}{
		{RootKey, 3, true},
		{Key{X: 1 << 29, Level: 1}, 3, true},
		{Key{X: 1, Level: 1}, 3, false},              // unaligned anchor
		{Key{X: 0, Level: MaxLevel + 1}, 3, false},   // level out of range
		{Key{Z: 1 << 29, Level: 1}, 2, false},        // z in 2D
		{Key{Z: 1 << 29, Level: 1}, 3, true},         //
		{Key{X: 1 << 30, Level: MaxLevel}, 3, false}, // coordinate out of domain
	}
	for _, c := range cases {
		if got := c.key.Valid(c.dim); got != c.want {
			t.Errorf("Valid(%v, dim=%d) = %v, want %v", c.key, c.dim, got, c.want)
		}
	}
}

func TestKeySize(t *testing.T) {
	if got := RootKey.Size(); got != 1<<MaxLevel {
		t.Fatalf("root size %d", got)
	}
	k := Key{Level: MaxLevel}
	if got := k.Size(); got != 1 {
		t.Fatalf("finest size %d", got)
	}
}

func TestParentOfRoot(t *testing.T) {
	if RootKey.Parent() != RootKey {
		t.Fatal("parent of root must be root")
	}
}

func TestAncestorPanicsOnDeeperLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ancestor(deeper) did not panic")
		}
	}()
	k := Key{Level: 2}
	k.Ancestor(5)
}

func TestChildPanicsAtMaxLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Child at MaxLevel did not panic")
		}
	}()
	k := Key{Level: MaxLevel}
	k.Child(0)
}

func TestContainsIsPartialOrder(t *testing.T) {
	f := func(x, y, z uint32, la, lb uint8) bool {
		a := keyAt(x, y, z, la%(MaxLevel+1))
		b := keyAt(x, y, z, lb%(MaxLevel+1))
		// Same anchor path: the coarser one contains the finer one only if
		// the finer one's ancestor at the coarse level matches.
		if a.Level <= b.Level {
			return a.Contains(b) == (b.Ancestor(a.Level) == a)
		}
		return b.Contains(a) == (a.Ancestor(b.Level) == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestIsAncestorStrict(t *testing.T) {
	k := Key{X: 1 << 28, Level: 4}
	if !k.Contains(k) {
		t.Fatal("a key contains itself")
	}
	if k.Contains(k.Parent()) {
		t.Fatal("a key does not contain its strict ancestor")
	}
}

func TestKeyString(t *testing.T) {
	s := Key{X: 1, Y: 2, Z: 3, Level: 4}.String()
	if !strings.Contains(s, "/4") {
		t.Fatalf("String() = %q lacks level", s)
	}
}

func TestChildLabelRoundTrip(t *testing.T) {
	f := func(x, y, z uint32, lvl uint8) bool {
		level := 1 + lvl%(MaxLevel-1)
		k := keyAt(x, y, z, level)
		// Reconstruct the key from its child labels.
		got := RootKey
		for t := 1; t <= int(level); t++ {
			got = got.Child(k.ChildLabel(t))
		}
		return got == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertClusteringBeatsMorton(t *testing.T) {
	// The clustering property of Moon et al. (the paper's ref [25]): the
	// cells of a random axis-aligned box form fewer contiguous curve runs
	// ("clusters") under Hilbert than under Morton.
	level := uint8(5)
	side := uint32(4) // 4x4x4 query boxes
	meanClusters := func(kind Kind) float64 {
		c := NewCurve(kind, 3)
		rng := rand.New(rand.NewSource(42))
		var total float64
		const samples = 300
		for s := 0; s < samples; s++ {
			// Random box anchor on the level-5 grid, box within bounds.
			cells := uint32(1) << level
			bx := uint32(rng.Intn(int(cells - side)))
			by := uint32(rng.Intn(int(cells - side)))
			bz := uint32(rng.Intn(int(cells - side)))
			var idxs []uint64
			shift := uint(MaxLevel - int(level))
			for dx := uint32(0); dx < side; dx++ {
				for dy := uint32(0); dy < side; dy++ {
					for dz := uint32(0); dz < side; dz++ {
						idxs = append(idxs, c.Index(Key{
							X: (bx + dx) << shift, Y: (by + dy) << shift, Z: (bz + dz) << shift,
							Level: level,
						}))
					}
				}
			}
			sortU64(idxs)
			runs := 1
			for i := 1; i < len(idxs); i++ {
				if idxs[i] != idxs[i-1]+1 {
					runs++
				}
			}
			total += float64(runs)
		}
		return total / samples
	}
	m, h := meanClusters(Morton), meanClusters(Hilbert)
	if h >= m {
		t.Fatalf("Hilbert mean clusters %f not below Morton %f", h, m)
	}
}

func sortU64(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestIndexPanicsBeyond64Bits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Index of a level-30 3D key did not panic")
		}
	}()
	c := NewCurve(Hilbert, 3)
	c.Index(Key{Level: MaxLevel})
}
