// Package partition implements the paper's primary contribution: SFC-based
// partitioning with flexible load balance (§3.2), the PartitionQuality
// estimator of Algorithm 2, and the architecture- and application-aware
// OptiPart of Algorithm 3.
//
// All algorithms run under the internal/comm SPMD runtime, so every
// reduction and all-to-all is a real collective with modeled cost, and the
// resulting partitions are identical to what the distributed C++/MPI
// implementation would produce given the same inputs.
package partition

import (
	"sync"

	"optipart/internal/sfc"
)

// InfKey is the sentinel separator meaning "after every key"; a rank whose
// range starts at InfKey owns nothing. It never reaches curve comparisons.
var InfKey = sfc.Key{X: ^uint32(0), Y: ^uint32(0), Z: ^uint32(0), Level: ^uint8(0)}

// IsInf reports whether k is the sentinel separator.
func IsInf(k sfc.Key) bool { return k == InfKey }

// sepRank linearizes a separator (or any key that may be the sentinel) into
// its curve rank: infinity is after every key.
func sepRank(curve *sfc.Curve, k sfc.Key) sfc.Rank128 {
	if IsInf(k) {
		return sfc.MaxRank128
	}
	return curve.Rank(k)
}

// Splitters defines a partition of the curve into p contiguous ranges:
// rank 0 owns keys before Seps[0], rank r owns [Seps[r-1], Seps[r]), and
// rank p-1 owns everything from Seps[p-2] on. Separators are octant keys —
// partition boundaries always fall on octree node boundaries, which is what
// lets a coarse boundary reduce surface area.
//
// Splitters must not be copied after first use: Owner and Ranges lazily
// linearize the separators into curve ranks so the per-key ownership lookup
// (the ghost-exchange hot path) is a binary search over integers rather than
// repeated tree-walking comparisons.
type Splitters struct {
	Curve *sfc.Curve
	Seps  []sfc.Key // p-1 separators, non-decreasing in curve order

	ranksOnce sync.Once
	sepRanks  []sfc.Rank128 // Rank(Seps[i]); MaxRank128 for InfKey
}

// P returns the number of partitions.
func (s *Splitters) P() int { return len(s.Seps) + 1 }

// ranks returns the linearized separator ranks, computing them on first use.
func (s *Splitters) ranks() []sfc.Rank128 {
	s.ranksOnce.Do(func() {
		r := make([]sfc.Rank128, len(s.Seps))
		for i, sep := range s.Seps {
			r[i] = sepRank(s.Curve, sep)
		}
		s.sepRanks = r
	})
	return s.sepRanks
}

// Owner returns the partition owning key k: the number of separators at or
// before k in curve order.
func (s *Splitters) Owner(k sfc.Key) int {
	return sfc.UpperBound(s.ranks(), sepRank(s.Curve, k))
}

// Ranges returns the p+1 boundaries of the owner ranges within a local
// array already sorted in curve order: rank r's elements are
// sorted[out[r]:out[r+1]]. Each boundary is one sfc.LowerBoundKeys search,
// narrowed to the keys after the previous boundary; an InfKey separator
// ranks after every key, so its boundary is the end.
func (s *Splitters) Ranges(sorted []sfc.Key) []int {
	p := s.P()
	seps := s.ranks()
	out := make([]int, p+1)
	out[p] = len(sorted)
	for r := 1; r < p; r++ {
		lo := out[r-1]
		out[r] = lo + s.Curve.LowerBoundKeys(sorted[lo:], seps[r-1])
	}
	return out
}

// partEnd returns the end of partition r's range within the ascending
// ranks, given its start from: the first index at or past from whose rank
// is at or past separator r, or len(ranks) for the last partition. Walking
// r upward from 0 cuts the ranks at the separators in p-1 searches, each
// narrowed to the ranks after the previous cut.
//
//alloc:zero
func partEnd(ranks, seps []sfc.Rank128, from, r int) int {
	if r == len(seps) {
		return len(ranks)
	}
	return from + sfc.LowerBound(ranks[from:], seps[r])
}
