// Package octree implements linear (pointer-free) adaptive octrees and
// quadtrees over SFC keys: random generation with the paper's three input
// distributions, linearization, completion, coarsening, 2:1 balancing, and
// neighbor lookup. These are the meshing substrates that the partitioner
// (internal/partition) and the FEM application (internal/fem) operate on.
//
// A linear octree is a slice of sfc.Key sorted along a curve with no key an
// ancestor of another; a complete linear octree additionally covers the
// whole domain with no overlap.
package octree

import (
	"fmt"
	"slices"

	"optipart/internal/sfc"
)

// Tree is a linear octree: leaves sorted along Curve, no ancestor pairs.
type Tree struct {
	Curve  *sfc.Curve
	Leaves []sfc.Key
}

// New wraps leaves (which must already be linear with respect to curve) in a
// Tree. Use Linearize to sanitize arbitrary key sets.
func New(curve *sfc.Curve, leaves []sfc.Key) *Tree {
	return &Tree{Curve: curve, Leaves: leaves}
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.Leaves) }

// Dim returns the spatial dimension of the tree's curve.
func (t *Tree) Dim() int { return t.Curve.Dim }

// Sort sorts keys in place along the curve.
func Sort(curve *sfc.Curve, keys []sfc.Key) {
	slices.SortFunc(keys, curve.Compare)
}

// Linearize sorts keys along the curve and removes duplicates and ancestors
// (when both an ancestor and a descendant are present, the finer descendant
// is kept). It returns the sanitized slice, which reuses the input's
// backing array.
func Linearize(curve *sfc.Curve, keys []sfc.Key) []sfc.Key {
	if len(keys) == 0 {
		return keys
	}
	Sort(curve, keys)
	return LinearizeSorted(keys)
}

// LinearizeSorted removes duplicates and ancestors from keys already sorted
// along a curve, in place and without allocating: in pre-order an ancestor
// immediately precedes its first descendant block, so a single forward pass
// peeking one element ahead removes both. It returns the sanitized prefix of
// the input's backing array. Callers that sorted with psort.TreeSortArena
// get a fully allocation-free canonicalization path.
func LinearizeSorted(keys []sfc.Key) []sfc.Key {
	out := keys[:0]
	for i, k := range keys {
		if i+1 < len(keys) {
			next := keys[i+1]
			if k == next || k.Contains(next) {
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// IsLinear reports whether keys are sorted and contain no duplicate or
// ancestor/descendant pairs.
func IsLinear(curve *sfc.Curve, keys []sfc.Key) bool {
	for i := 1; i < len(keys); i++ {
		if curve.Compare(keys[i-1], keys[i]) >= 0 || keys[i-1].Contains(keys[i]) {
			return false
		}
	}
	return true
}

// IsComplete reports whether the linear octree covers the whole domain:
// the total measure of the leaves equals the measure of the root. Leaves
// must already be linear.
func IsComplete(curve *sfc.Curve, keys []sfc.Key) bool {
	dim := uint(curve.Dim)
	var total uint64
	for _, k := range keys {
		total += uint64(1) << (dim * uint(sfc.MaxLevel-int(k.Level)))
	}
	return total == uint64(1)<<(dim*sfc.MaxLevel)
}

// Complete builds the minimal complete linear octree whose leaf set contains
// every seed key (seeds deeper than maxLevel are clamped). Seeds need not be
// sorted or unique. The classic use is turning a set of sample points
// (level-MaxLevel seeds) into an adaptive mesh.
func Complete(curve *sfc.Curve, seeds []sfc.Key, maxLevel uint8) []sfc.Key {
	if maxLevel > sfc.MaxLevel {
		maxLevel = sfc.MaxLevel
	}
	clamped := make([]sfc.Key, len(seeds))
	for i, s := range seeds {
		if s.Level > maxLevel {
			s = s.Ancestor(maxLevel)
		}
		clamped[i] = s
	}
	clamped = Linearize(curve, clamped)
	var out []sfc.Key
	completeNode(curve, sfc.RootKey, curve.RootState(), clamped, &out)
	return out
}

// completeNode emits the leaves of the minimal complete octree under node,
// given the linearized seeds contained in node (in curve order).
func completeNode(curve *sfc.Curve, node sfc.Key, state sfc.State, seeds []sfc.Key, out *[]sfc.Key) {
	if len(seeds) == 0 {
		*out = append(*out, node)
		return
	}
	if len(seeds) == 1 && seeds[0] == node {
		*out = append(*out, node)
		return
	}
	// Split the seeds among children in curve order.
	depth := int(node.Level) + 1
	lo := 0
	for pos := 0; pos < curve.NumChildren(); pos++ {
		label := curve.ChildAt(state, pos)
		child := node.Child(label)
		hi := lo
		for hi < len(seeds) && child.Contains(seeds[hi]) {
			hi++
		}
		_ = depth
		completeNode(curve, child, curve.Next(state, pos), seeds[lo:hi], out)
		lo = hi
	}
	if lo != len(seeds) {
		panic(fmt.Errorf("octree: %d seeds not contained in children of %v", len(seeds)-lo, node))
	}
}

// FindLeaf returns the index of the leaf containing point q (a key at any
// level; containment is of q's anchor cell) in a complete linear octree, or
// -1 if no leaf contains it. O(log n).
func (t *Tree) FindLeaf(q sfc.Key) int {
	// The containing leaf is the last leaf that does not come after q in
	// pre-order: leaves are disjoint, and an ancestor precedes descendants.
	// The comparator collapses to -1/+1 so the binary search lands on the
	// first leaf strictly after q.
	i, _ := slices.BinarySearchFunc(t.Leaves, q, func(leaf, q sfc.Key) int {
		if t.Curve.Compare(leaf, q) > 0 {
			return 1
		}
		return -1
	})
	// Candidate is i-1 (the last leaf <= q).
	if i == 0 {
		return -1
	}
	if t.Leaves[i-1].Contains(q) {
		return i - 1
	}
	return -1
}
