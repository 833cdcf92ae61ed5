package sfc

import (
	"math/rand"
	"slices"
	"testing"
)

// faceNeighbors is the oracle's own neighbour enumeration: the same-level
// keys that share a face with k, one coordinate moved by ±Size, dropping
// those outside the domain.
func faceNeighbors(k Key, dim int) []Key {
	var out []Key
	for a := 0; a < dim; a++ {
		for _, step := range []int64{-int64(k.Size()), int64(k.Size())} {
			c := [3]int64{int64(k.X), int64(k.Y), int64(k.Z)}
			c[a] += step
			if c[a] >= 0 && c[a] < 1<<MaxLevel {
				out = append(out, Key{X: uint32(c[0]), Y: uint32(c[1]), Z: uint32(c[2]), Level: k.Level})
			}
		}
	}
	return out
}

// checkRankWithSpan fails unless RankWithSpan(k) equals Rank(k) and the
// minimum and maximum Rank over k's face neighbours, or the sentinels when
// k has none.
func checkRankWithSpan(t *testing.T, c *Curve, k Key) {
	t.Helper()
	wantLo, wantHi := MaxRank128, Rank128{}
	for _, n := range faceNeighbors(k, c.Dim) {
		r := c.Rank(n)
		if r.Less(wantLo) {
			wantLo = r
		}
		if wantHi.Less(r) {
			wantHi = r
		}
	}
	r, lo, hi := c.RankWithSpan(k)
	if want := c.Rank(k); r != want {
		t.Fatalf("%v dim=%d %v: r = %v, Rank = %v", c.Kind, c.Dim, k, r, want)
	}
	if lo != wantLo || hi != wantHi {
		t.Fatalf("%v dim=%d %v: span (%v, %v), want (%v, %v)", c.Kind, c.Dim, k, lo, hi, wantLo, wantHi)
	}
}

// spanEdgeKeys are the keys the kernel's shortcuts could get wrong: the
// root; every corner (and so every face) of the domain at shallow, middle,
// 21-level-boundary and maximal depth; and keys whose face neighbours
// diverge from them near the root, so a neighbour's tail is longer than 21
// digits and needs a second word in 3-D. Candidates that are not valid at
// their level are dropped.
func spanEdgeKeys(dim int) []Key {
	keys := []Key{RootKey}
	for _, level := range []uint8{1, 2, 10, 21, 22, 29, MaxLevel} {
		last := uint32(1<<MaxLevel) - uint32(1)<<(MaxLevel-level)
		for corner := 0; corner < 1<<dim; corner++ {
			k := Key{Level: level}
			if corner&1 != 0 {
				k.X = last
			}
			if corner&2 != 0 {
				k.Y = last
			}
			if corner&4 != 0 {
				k.Z = last
			}
			keys = append(keys, k)
		}
	}
	const half = uint32(1) << (MaxLevel - 1)
	for _, level := range []uint8{1, 21, 22, 25, MaxLevel} {
		below := half - uint32(1)<<(MaxLevel-level) // plus neighbour carries into bit 29
		keys = append(keys,
			Key{X: half, Level: level},                     // minus-x diverges at level 1
			Key{X: below, Y: half, Level: level},           // plus-x and minus-y diverge at level 1
			Key{X: half, Y: half, Level: level},            // domain centre
			Key{X: below, Y: below, Level: level},          // every plus face diverges at level 1
			Key{X: half >> 1, Y: below >> 1, Level: level}, // divergence at level 2
		)
		if dim == 3 {
			keys = append(keys, Key{X: below, Y: below, Z: half, Level: level}, Key{Z: half, Level: level})
		}
	}
	return slices.DeleteFunc(keys, func(k Key) bool { return !k.Valid(dim) })
}

// TestRankWithSpanEdgeKeys checks the kernel against the oracle on the edge
// keys, for both curves and both dimensions.
func TestRankWithSpanEdgeKeys(t *testing.T) {
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			for _, k := range spanEdgeKeys(dim) {
				checkRankWithSpan(t, c, k)
			}
		}
	}
}

// TestRankWithSpanRandom checks the kernel against the oracle on random
// keys of every level, including 3-D keys deeper than 21 levels.
func TestRankWithSpanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			for trial := 0; trial < 20000; trial++ {
				checkRankWithSpan(t, c, randomKeyAnyLevel(rng, dim))
			}
		}
	}
}

// FuzzRankWithSpan fuzzes the kernel against the oracle over raw key
// material, both curves and both dimensions.
func FuzzRankWithSpan(f *testing.F) {
	for _, dim := range []int{2, 3} {
		for _, k := range spanEdgeKeys(dim) {
			f.Add(k.X, k.Y, k.Z, k.Level, dim == 3, dim == 2)
		}
	}
	f.Fuzz(func(t *testing.T, x, y, z uint32, level uint8, hilbert, twoD bool) {
		kind, dim := Morton, 3
		if hilbert {
			kind = Hilbert
		}
		if twoD {
			dim, z = 2, 0
		}
		checkRankWithSpan(t, NewCurve(kind, dim), clampKey(x, y, z, level))
	})
}

// BenchmarkRankWithSpan prices the kernel against Rank alone, and against
// the box SpanBox derives from a known rank, on a 3-D Hilbert mesh of
// random keys at levels 2–18.
func BenchmarkRankWithSpan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewCurve(Hilbert, 3)
	keys := make([]Key, 1<<14)
	for i := range keys {
		level := uint8(2 + rng.Intn(17))
		keys[i] = clampKey(rng.Uint32(), rng.Uint32(), rng.Uint32(), level)
	}
	b.Run("Rank", func(b *testing.B) {
		var sink Rank128
		for i := 0; i < b.N; i++ {
			sink = sink.or(c.Rank(keys[i&(len(keys)-1)]))
		}
		_ = sink
	})
	ranks := make([]Rank128, len(keys))
	for i, k := range keys {
		ranks[i] = c.Rank(k)
	}
	b.Run("SpanBox", func(b *testing.B) {
		var sink Rank128
		for i := 0; i < b.N; i++ {
			j := i & (len(keys) - 1)
			lo, hi := c.SpanBox(keys[j], ranks[j])
			sink = sink.or(lo).or(hi)
		}
		_ = sink
	})
	b.Run("RankWithSpan", func(b *testing.B) {
		var sink Rank128
		for i := 0; i < b.N; i++ {
			r, lo, hi := c.RankWithSpan(keys[i&(len(keys)-1)])
			sink = sink.or(r).or(lo).or(hi)
		}
		_ = sink
	})
}

// checkSpanBox fails unless SpanBox(k, Rank(k)) is the rank range of k's
// deepest ancestor that holds every face neighbour: its lo that ancestor's
// rank with a zero level field, its hi the rank of the ancestor's last
// descendant at MaxLevel with an all-ones level field. So the box contains
// RankWithSpan's span and Rank(k), and IsSpanBox tells it from the exact
// span. A level-0 key gets the exact sentinels.
func checkSpanBox(t *testing.T, c *Curve, k Key) {
	t.Helper()
	r, spanLo, spanHi := c.RankWithSpan(k)
	lo, hi := c.SpanBox(k, r)
	if IsSpanBox(spanLo) {
		t.Fatalf("%v dim=%d %v: exact span lo %v reads as a box", c.Kind, c.Dim, k, spanLo)
	}
	if k.Level == 0 {
		if lo != MaxRank128 || hi != (Rank128{}) {
			t.Fatalf("%v dim=%d root: box (%v, %v), want the sentinels", c.Kind, c.Dim, lo, hi)
		}
		return
	}
	if !IsSpanBox(lo) {
		t.Fatalf("%v dim=%d %v: box lo %v carries a level", c.Kind, c.Dim, k, lo)
	}
	if spanLo.Less(lo) || hi.Less(spanHi) || r.Less(lo) || hi.Less(r) {
		t.Fatalf("%v dim=%d %v: box (%v, %v) misses span (%v, %v) or rank %v", c.Kind, c.Dim, k, lo, hi, spanLo, spanHi, r)
	}
	level := k.Level - 1
	for ; level > 0; level-- {
		anc := k.Ancestor(level)
		holds := true
		for _, n := range faceNeighbors(k, c.Dim) {
			holds = holds && n.Ancestor(level) == anc
		}
		if holds {
			break
		}
	}
	anc := k.Ancestor(level)
	last := anc
	for last.Level < MaxLevel {
		last = last.Child(c.ChildAt(c.StateAt(last), c.NumChildren()-1))
	}
	wantLo, wantHi := c.Rank(anc), c.Rank(last)
	wantLo.Lo &^= 1<<rankLevelBits - 1
	wantHi.Lo |= 1<<rankLevelBits - 1
	if lo != wantLo || hi != wantHi {
		t.Fatalf("%v dim=%d %v: box (%v, %v), want level-%d ancestor's (%v, %v)", c.Kind, c.Dim, k, lo, hi, level, wantLo, wantHi)
	}
}

// TestSpanBoxContainsSpan checks SpanBox against the ancestor oracle on
// the edge keys and on random keys at every level, for both curves and
// both dimensions.
func TestSpanBoxContainsSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			for _, k := range spanEdgeKeys(dim) {
				checkSpanBox(t, c, k)
			}
			for level := 0; level <= MaxLevel; level++ {
				for trial := 0; trial < 200; trial++ {
					k := clampKey(rng.Uint32(), rng.Uint32(), rng.Uint32(), uint8(level))
					if dim == 2 {
						k.Z = 0
					}
					checkSpanBox(t, c, k)
				}
			}
		}
	}
}

// FuzzSpanBox fuzzes SpanBox against the ancestor oracle over raw key
// material, both curves and both dimensions.
func FuzzSpanBox(f *testing.F) {
	for _, dim := range []int{2, 3} {
		for _, k := range spanEdgeKeys(dim) {
			f.Add(k.X, k.Y, k.Z, k.Level, dim == 3, dim == 2)
		}
	}
	f.Fuzz(func(t *testing.T, x, y, z uint32, level uint8, hilbert, twoD bool) {
		kind, dim := Morton, 3
		if hilbert {
			kind = Hilbert
		}
		if twoD {
			dim, z = 2, 0
		}
		checkSpanBox(t, NewCurve(kind, dim), clampKey(x, y, z, level))
	})
}
