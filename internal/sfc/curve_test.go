package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestHilbertUnitStep is the decisive Hilbert property: consecutive cells
// along the curve are face neighbors (they differ by exactly one grid unit
// in exactly one dimension). Morton does not have this property.
func TestHilbertUnitStep(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for level := uint8(1); level <= 4; level++ {
			c := NewCurve(Hilbert, dim)
			total := uint64(1) << (uint(dim) * uint(level))
			unit := uint32(1) << (MaxLevel - int(level))
			prev := c.KeyAtIndex(0, level)
			for i := uint64(1); i < total; i++ {
				k := c.KeyAtIndex(i, level)
				dx := absDiff(k.X, prev.X)
				dy := absDiff(k.Y, prev.Y)
				dz := absDiff(k.Z, prev.Z)
				moved := 0
				if dx > 0 {
					moved++
				}
				if dy > 0 {
					moved++
				}
				if dz > 0 {
					moved++
				}
				if moved != 1 || dx+dy+dz != unit {
					t.Fatalf("dim=%d level=%d: step %d -> %d not a unit face step: %v -> %v",
						dim, level, i-1, i, prev, k)
				}
				prev = k
			}
		}
	}
}

// TestIndexBijection checks Index and KeyAtIndex are inverse bijections for
// both curves at small levels.
func TestIndexBijection(t *testing.T) {
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			level := uint8(3)
			total := uint64(1) << (uint(dim) * uint(level))
			seen := make(map[Key]bool, total)
			for i := uint64(0); i < total; i++ {
				k := c.KeyAtIndex(i, level)
				if !k.Valid(dim) {
					t.Fatalf("%v dim=%d: invalid key %v at index %d", kind, dim, k, i)
				}
				if seen[k] {
					t.Fatalf("%v dim=%d: duplicate key %v", kind, dim, k)
				}
				seen[k] = true
				if got := c.Index(k); got != i {
					t.Fatalf("%v dim=%d: Index(KeyAtIndex(%d)) = %d", kind, dim, i, got)
				}
			}
		}
	}
}

// TestMortonIndexInterleave cross-checks the Morton index against direct bit
// interleaving.
func TestMortonIndexInterleave(t *testing.T) {
	c := NewCurve(Morton, 3)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		level := uint8(1 + rng.Intn(21)) // Index is defined for 3·level <= 64
		k := randomKey(rng, 3, level)
		var want uint64
		for bit := int(level) - 1; bit >= 0; bit-- {
			shift := MaxLevel - int(level) + bit
			want = want<<1 | uint64(k.Z>>shift&1)
			want = want<<1 | uint64(k.Y>>shift&1)
			want = want<<1 | uint64(k.X>>shift&1)
		}
		if got := c.Index(k); got != want {
			t.Fatalf("Morton index of %v = %d, want %d", k, got, want)
		}
	}
}

// TestCompareMatchesIndex checks that Compare agrees with comparing indices
// for same-level keys, for both curves and dims.
func TestCompareMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			for trial := 0; trial < 2000; trial++ {
				level := uint8(1 + rng.Intn(10))
				a := randomKey(rng, dim, level)
				b := randomKey(rng, dim, level)
				ia, ib := c.Index(a), c.Index(b)
				want := 0
				if ia < ib {
					want = -1
				} else if ia > ib {
					want = 1
				}
				if got := c.Compare(a, b); got != want {
					t.Fatalf("%v dim=%d: Compare(%v,%v)=%d want %d", kind, dim, a, b, got, want)
				}
			}
		}
	}
}

// TestCompareAncestorFirst checks pre-order: an ancestor precedes all of its
// descendants.
func TestCompareAncestorFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []Kind{Morton, Hilbert} {
		c := NewCurve(kind, 3)
		for trial := 0; trial < 2000; trial++ {
			level := uint8(2 + rng.Intn(8))
			k := randomKey(rng, 3, level)
			anc := k.Ancestor(uint8(rng.Intn(int(level))))
			if got := c.Compare(anc, k); got != -1 {
				t.Fatalf("%v: Compare(ancestor %v, %v) = %d, want -1", kind, anc, k, got)
			}
			if got := c.Compare(k, anc); got != 1 {
				t.Fatalf("%v: Compare(%v, ancestor %v) = %d, want 1", kind, k, anc, got)
			}
		}
	}
}

// TestPermIsPermutation checks ChildAt/PosOf are inverse permutations for
// every reachable state.
func TestPermIsPermutation(t *testing.T) {
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			states := map[State]bool{c.RootState(): true}
			frontier := []State{c.RootState()}
			for len(frontier) > 0 {
				s := frontier[0]
				frontier = frontier[1:]
				seen := make([]bool, c.NumChildren())
				for pos := 0; pos < c.NumChildren(); pos++ {
					label := c.ChildAt(s, pos)
					if label < 0 || label >= c.NumChildren() || seen[label] {
						t.Fatalf("%v dim=%d state %+v: bad child label %d at pos %d", kind, dim, s, label, pos)
					}
					seen[label] = true
					if c.PosOf(s, label) != pos {
						t.Fatalf("%v dim=%d state %+v: PosOf(ChildAt(%d)) != %d", kind, dim, s, pos, pos)
					}
					ns := c.Next(s, pos)
					if !states[ns] {
						states[ns] = true
						frontier = append(frontier, ns)
					}
				}
			}
			if kind == Hilbert && len(states) < 2 {
				t.Fatalf("Hilbert dim=%d: expected multiple orientation states, got %d", dim, len(states))
			}
		}
	}
}

// TestHilbertContinuityAcrossLevels checks that the ordering of cells is
// consistent between levels: the index of a cell's parent is the cell index
// shifted down by Dim bits.
func TestHilbertContinuityAcrossLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			for trial := 0; trial < 2000; trial++ {
				level := uint8(2 + rng.Intn(12))
				k := randomKey(rng, dim, level)
				if got, want := c.Index(k.Parent()), c.Index(k)>>uint(dim); got != want {
					t.Fatalf("%v dim=%d: parent index %d, want %d", kind, dim, got, want)
				}
			}
		}
	}
}

// TestKeyChildParent is a property test: Child and Parent round-trip and
// labels match ChildLabel.
func TestKeyChildParent(t *testing.T) {
	f := func(x, y, z uint32, lvl uint8, label uint8) bool {
		level := lvl % MaxLevel
		k := keyAt(x, y, z, level)
		lab := int(label) % 8
		ch := k.Child(lab)
		return ch.Parent() == k && ch.ChildLabel(int(level)+1) == lab && k.Contains(ch) && !ch.Contains(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestStateAt checks StateAt matches an explicit descent.
func TestStateAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCurve(Hilbert, 3)
	for trial := 0; trial < 500; trial++ {
		level := uint8(rng.Intn(10))
		k := randomKey(rng, 3, level)
		s := c.RootState()
		for tt := 1; tt <= int(level); tt++ {
			s = c.Next(s, c.PosOf(s, k.ChildLabel(tt)))
		}
		if got := c.StateAt(k); got != s {
			t.Fatalf("StateAt(%v) = %+v, want %+v", k, got, s)
		}
	}
}

func TestNewCurvePanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCurve(Hilbert, 4) did not panic")
		}
	}()
	NewCurve(Hilbert, 4)
}

func TestNewCurvePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if _, ok := recover().(error); !ok {
			t.Fatal("NewCurve(Kind(7), 3) did not panic with an error")
		}
	}()
	NewCurve(Kind(7), 3)
}

// randomKey returns a valid random key of the given level.
func randomKey(rng *rand.Rand, dim int, level uint8) Key {
	mask := ^lowMask(MaxLevel - int(level))
	k := Key{
		X:     rng.Uint32() & (1<<MaxLevel - 1) & mask,
		Y:     rng.Uint32() & (1<<MaxLevel - 1) & mask,
		Level: level,
	}
	if dim == 3 {
		k.Z = rng.Uint32() & (1<<MaxLevel - 1) & mask
	}
	return k
}

// keyAt aligns arbitrary coordinates to a valid key at the given level.
func keyAt(x, y, z uint32, level uint8) Key {
	mask := ^lowMask(MaxLevel-int(level)) & (1<<MaxLevel - 1)
	return Key{X: x & mask, Y: y & mask, Z: z & mask, Level: level}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"morton": Morton, "hilbert": Hilbert, "Morton": Morton, "HILBERT": Hilbert} {
		if got, err := ParseKind(s); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"hilbrt", "", "z-order", "Kind(1)"} {
		if _, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%q) accepted", s)
		}
	}
}
