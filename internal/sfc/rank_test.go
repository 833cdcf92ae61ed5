package sfc

import (
	"math/rand"
	"slices"
	"testing"
)

// randomKeyAnyLevel draws a valid key of any level in [0, MaxLevel],
// including levels too deep for Index (> 64/dim), which Rank must handle.
func randomKeyAnyLevel(rng *rand.Rand, dim int) Key {
	level := uint8(rng.Intn(MaxLevel + 1))
	mask := ^lowMask(MaxLevel - int(level))
	k := Key{
		X:     rng.Uint32() & mask & (1<<MaxLevel - 1),
		Y:     rng.Uint32() & mask & (1<<MaxLevel - 1),
		Level: level,
	}
	if dim == 3 {
		k.Z = rng.Uint32() & mask & (1<<MaxLevel - 1)
	}
	return k
}

// Compare returns -1, 0, or +1 ordering r against o, in the shape of
// Curve.Compare, so the oracles can set the two orders side by side.
func (r Rank128) Compare(o Rank128) int {
	switch {
	case r.Less(o):
		return -1
	case o.Less(r):
		return 1
	}
	return 0
}

// TestRankMatchesCompare is the defining invariant of linearized ranks:
// integer order over Rank must agree exactly with the tree-walking Compare,
// for both curves, both dimensions, and arbitrary (including maximally deep)
// levels, on random keys and on every pair of seamKeys.
func TestRankMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			seam := seamKeys(dim)
			for _, a := range seam {
				for _, b := range seam {
					if got, want := c.Rank(a).Compare(c.Rank(b)), c.Compare(a, b); got != want {
						t.Fatalf("%v dim=%d: Rank order %d != Compare %d for seam keys %v vs %v", kind, dim, got, want, a, b)
					}
				}
			}
			for trial := 0; trial < 20000; trial++ {
				a := randomKeyAnyLevel(rng, dim)
				b := randomKeyAnyLevel(rng, dim)
				if trial%7 == 0 {
					b = a // exercise equality
				}
				if trial%11 == 0 && a.Level > 0 {
					b = a.Ancestor(uint8(rng.Intn(int(a.Level) + 1))) // exercise ancestry
				}
				want := c.Compare(a, b)
				got := c.Rank(a).Compare(c.Rank(b))
				if got != want {
					t.Fatalf("%v dim=%d: Rank order %d != Compare %d for %v vs %v (ranks %v %v)",
						kind, dim, got, want, a, b, c.Rank(a), c.Rank(b))
				}
			}
		}
	}
}

// TestRankAgreesWithIndex checks that for levels shallow enough for Index,
// the rank is exactly the index padded to MaxLevel digits with the level
// appended — i.e. Rank is the natural 128-bit extension of Index. Besides
// random keys it walks every level Index reaches (0–21 in 3-D, 0–30 in
// 2-D) with the anchors of anchorEdgeKeys, so a label read one level off
// shows at the level it starts.
func TestRankAgreesWithIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			check := func(k Key) {
				t.Helper()
				idx := c.Index(k)
				pad := uint(dim*(MaxLevel-int(k.Level)) + rankLevelBits)
				var want Rank128
				if pad >= 64 {
					want = Rank128{Hi: idx << (pad - 64)}
				} else {
					want = Rank128{Hi: idx >> (64 - pad), Lo: idx << pad}
				}
				want.Lo |= uint64(k.Level)
				if got := c.Rank(k); got != want {
					t.Fatalf("%v dim=%d: Rank(%v) = %v, want %v (index %d)", kind, dim, k, got, want, idx)
				}
			}
			for level := 0; level*dim <= 64 && level <= MaxLevel; level++ {
				for _, k := range anchorEdgeKeys(dim, uint8(level)) {
					check(k)
				}
			}
			for trial := 0; trial < 5000; trial++ {
				if k := randomKeyAnyLevel(rng, dim); int(k.Level)*dim <= 64 {
					check(k)
				}
			}
		}
	}
}

// anchorEdgeKeys returns the deterministic keys of one level whose anchors
// are all zeros, all ones, and all ones on one axis at a time, so every
// child label of a Hilbert descent takes its extreme values.
func anchorEdgeKeys(dim int, level uint8) []Key {
	ones := uint32(1<<MaxLevel-1) &^ lowMask(MaxLevel-int(level))
	keys := []Key{{Level: level}, {X: ones, Y: ones, Level: level}, {X: ones, Level: level}, {Y: ones, Level: level}}
	if dim == 3 {
		keys[1].Z = ones
		keys = append(keys, Key{Z: ones, Level: level})
	}
	return keys
}

// seamKeys are the keys where a 3-D Hilbert rank switches from its first
// interleave word (levels 1..21) to its second (22..30): keys at levels
// 20–23 and 30 whose anchors differ only in the bits levels 21 and 22 read,
// with their parents and the edge anchors of the same levels.
func seamKeys(dim int) []Key {
	var keys []Key
	for _, level := range []uint8{20, 21, 22, 23, MaxLevel} {
		keys = append(keys, anchorEdgeKeys(dim, level)...)
		for _, bit := range []uint32{1 << 9, 1 << 8, 1<<9 | 1<<8} {
			for axis := 0; axis < dim; axis++ {
				anchor := [3]uint32{0x2AAAAAAA, 0x15555555, 0x33333333}
				anchor[axis] ^= bit
				k := clampKey(anchor[0], anchor[1], anchor[2], level)
				if dim == 2 {
					k.Z = 0
				}
				keys = append(keys, k, k.Ancestor(level-1))
			}
		}
	}
	return keys
}

// TestRankSentinel checks that no valid key reaches the +infinity rank.
func TestRankSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, kind := range []Kind{Morton, Hilbert} {
		c := NewCurve(kind, 3)
		deepest := Key{X: 1<<MaxLevel - 1, Y: 1<<MaxLevel - 1, Z: 1<<MaxLevel - 1, Level: MaxLevel}
		if !c.Rank(deepest).Less(MaxRank128) {
			t.Fatalf("%v: deepest key rank %v not below MaxRank128", kind, c.Rank(deepest))
		}
		for i := 0; i < 1000; i++ {
			if k := randomKeyAnyLevel(rng, 3); !c.Rank(k).Less(MaxRank128) {
				t.Fatalf("%v: key %v rank reaches sentinel", kind, k)
			}
		}
	}
}

// TestNewCurveMemoized checks that curve construction is cached per
// (Kind, Dim) and that cached instances still behave.
func TestNewCurveMemoized(t *testing.T) {
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			a := NewCurve(kind, dim)
			b := NewCurve(kind, dim)
			if a != b {
				t.Fatalf("NewCurve(%v, %d) not memoized", kind, dim)
			}
			if a.NumChildren() != 1<<dim {
				t.Fatalf("cached curve broken: NumChildren = %d", a.NumChildren())
			}
		}
	}
	if NewCurve(Morton, 2) == NewCurve(Morton, 3) {
		t.Fatal("distinct dims share a cache slot")
	}
	if NewCurve(Morton, 3) == NewCurve(Hilbert, 3) {
		t.Fatal("distinct kinds share a cache slot")
	}
}

// FuzzRankOrder fuzzes the order invariant over raw key material.
func FuzzRankOrder(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint8(0), uint32(1), uint32(2), uint32(3), uint8(5), false)
	f.Add(uint32(1<<29), uint32(1<<28), uint32(1<<27), uint8(30), uint32(0), uint32(0), uint32(0), uint8(30), true)
	f.Fuzz(func(t *testing.T, ax, ay, az uint32, al uint8, bx, by, bz uint32, bl uint8, hilbert bool) {
		kind := Morton
		if hilbert {
			kind = Hilbert
		}
		c := NewCurve(kind, 3)
		a := clampKey(ax, ay, az, al)
		b := clampKey(bx, by, bz, bl)
		want := c.Compare(a, b)
		if got := c.Rank(a).Compare(c.Rank(b)); got != want {
			t.Fatalf("Rank order %d != Compare %d for %v vs %v", got, want, a, b)
		}
	})
}

// clampKey forces arbitrary fuzz material into a valid key.
func clampKey(x, y, z uint32, level uint8) Key {
	if level > MaxLevel {
		level = level % (MaxLevel + 1)
	}
	mask := ^lowMask(MaxLevel-int(level)) & (1<<MaxLevel - 1)
	return Key{X: x & mask, Y: y & mask, Z: z & mask, Level: level}
}

// TestRankBounds checks LowerBound and UpperBound against a linear scan on
// sorted slices with runs of duplicates (drawn from a small alphabet, so
// both words take part in the order), ending in MaxRank128 sentinels the way
// separator arrays do, and probed before the first element, at every
// element, between elements, and after the last.
func TestRankBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scan := func(ranks []Rank128, stop func(e Rank128) bool) int {
		for i, e := range ranks {
			if stop(e) {
				return i
			}
		}
		return len(ranks)
	}
	for trial := 0; trial < 500; trial++ {
		ranks := make([]Rank128, rng.Intn(40)) // length 0 included
		for i := range ranks {
			ranks[i] = Rank128{Hi: 1 + uint64(rng.Intn(3)), Lo: 1 + uint64(rng.Intn(4))}
			if rng.Intn(8) == 0 {
				ranks[i] = MaxRank128
			}
		}
		slices.SortFunc(ranks, Rank128.Compare)
		probes := []Rank128{{}, {Hi: 0, Lo: 9}, {Hi: 2, Lo: 0}, {Hi: 9, Lo: 9}, MaxRank128}
		probes = append(probes, ranks...)
		for _, r := range probes {
			if got, want := LowerBound(ranks, r), scan(ranks, func(e Rank128) bool { return !e.Less(r) }); got != want {
				t.Fatalf("LowerBound(%v, %v) = %d, want %d", ranks, r, got, want)
			}
			if got, want := UpperBound(ranks, r), scan(ranks, func(e Rank128) bool { return r.Less(e) }); got != want {
				t.Fatalf("UpperBound(%v, %v) = %d, want %d", ranks, r, got, want)
			}
		}
	}
}

// TestLowerBoundKeys pins the key search at its edges: no keys, a rank
// before every key, after every key, equal to a key (with the key
// duplicated, so the first copy must win), between two keys, and the
// MaxRank128 sentinel, which no key reaches.
func TestLowerBoundKeys(t *testing.T) {
	for _, kind := range []Kind{Morton, Hilbert} {
		c := NewCurve(kind, 2)
		var keys []Key
		for label := 0; label < 4; label++ {
			keys = append(keys, RootKey.Child(c.ChildAt(c.RootState(), label)))
		}
		keys = slices.Insert(keys, 2, keys[1]) // curve order, with a duplicate
		first, dup, last := c.Rank(keys[0]), c.Rank(keys[1]), c.Rank(keys[4])
		cases := []struct {
			name string
			keys []Key
			r    Rank128
			want int
		}{
			{"empty", nil, first, 0},
			{"empty/max", nil, MaxRank128, 0},
			{"before all", keys, c.Rank(RootKey), 0},
			{"equal to first", keys, first, 0},
			{"equal to a duplicate", keys, dup, 1},
			{"between", keys, c.Rank(keys[1].Child(3)), 3},
			{"equal to last", keys, last, 4},
			{"after all", keys, c.Rank(keys[4].Child(3)), 5},
			{"MaxRank128", keys, MaxRank128, 5},
		}
		for _, tc := range cases {
			if got := c.LowerBoundKeys(tc.keys, tc.r); got != tc.want {
				t.Errorf("%v %s: LowerBoundKeys = %d, want %d", kind, tc.name, got, tc.want)
			}
		}
	}
}
