package octree

import (
	"slices"

	"optipart/internal/sfc"
)

// SoA is struct-of-arrays storage for a sequence of octant keys: one column
// per key field instead of a slice of 16-byte records. At 13 bytes per key
// it is the compact long-lived representation — the partitioning service
// keeps every cached octree in one, so a cache sized in keys costs ~19%
// less resident memory than []sfc.Key — and column-wise layout makes the
// two operations a cache performs on it (equality sweep against an incoming
// request, digesting) sequential scans of dense arrays.
//
// An SoA is append-only; it preserves whatever order keys were appended in
// (for cached octrees: canonical curve order).
type SoA struct {
	X, Y, Z []uint32
	Level   []uint8
}

// Len returns the number of stored keys.
func (s *SoA) Len() int { return len(s.Level) }

// AppendKeys appends every key of ks: each column grows once, to the new
// length, and is filled by index. The columns are bounded by their owner —
// the service keeps one SoA per cache entry and evicts entries past its key
// budget — not here.
func (s *SoA) AppendKeys(ks []sfc.Key) {
	n, m := s.Len(), s.Len()+len(ks)
	s.X, s.Y, s.Z = slices.Grow(s.X, len(ks))[:m], slices.Grow(s.Y, len(ks))[:m], slices.Grow(s.Z, len(ks))[:m]
	s.Level = slices.Grow(s.Level, len(ks))[:m]
	for i, k := range ks {
		s.X[n+i], s.Y[n+i], s.Z[n+i], s.Level[n+i] = k.X, k.Y, k.Z, k.Level
	}
}

// EqualKeys reports whether the stored sequence is element-wise equal to ks.
// It is the cache's exact-match verification: a content-hash collision is
// caught here instead of silently returning another octree's partition. The
// comparison is allocation-free and scans each column densely.
//
//alloc:zero
func (s *SoA) EqualKeys(ks []sfc.Key) bool {
	if s.Len() != len(ks) {
		return false
	}
	for i, k := range ks {
		if s.Level[i] != k.Level || s.X[i] != k.X || s.Y[i] != k.Y || s.Z[i] != k.Z {
			return false
		}
	}
	return true
}
