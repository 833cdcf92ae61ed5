// Package octree implements linear (pointer-free) adaptive octrees and
// quadtrees over SFC keys: random generation with the paper's three input
// distributions, linearization, completion, coarsening, 2:1 balancing, and
// neighbor lookup. These are the meshing substrates that the partitioner
// (internal/partition) and the FEM application (internal/fem) operate on.
//
// A linear octree is a slice of sfc.Key sorted along a curve with no key an
// ancestor of another; a complete linear octree additionally covers the
// whole domain with no overlap. Curve order is rank order (sfc.Rank), and
// every sort here is psort.TreeSort.
package octree

import (
	"fmt"
	"math/bits"
	"sync"

	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// Tree is a linear octree: leaves sorted along Curve, no ancestor pairs.
//
// FindLeaf ranks the leaves once, on first use, so a Tree must not be
// copied after first use and its Leaves must not change afterwards.
type Tree struct {
	Curve  *sfc.Curve
	Leaves []sfc.Key

	ranksOnce sync.Once
	ranks     []sfc.Rank128 // Curve.Rank(Leaves[i])
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

// Linearize sorts keys along the curve and removes duplicates and ancestors
// (when both an ancestor and a descendant are present, the finer descendant
// is kept). It returns the sanitized slice, which reuses the input's
// backing array.
func Linearize(curve *sfc.Curve, keys []sfc.Key) []sfc.Key {
	psort.TreeSort(curve, keys)
	return LinearizeSorted(keys)
}

// LinearizeSorted removes duplicates and ancestors from keys already sorted
// along a curve, in place and without allocating: in pre-order an ancestor
// immediately precedes its first descendant block, so a single forward pass
// peeking one element ahead removes both. It returns the sanitized prefix of
// the input's backing array. Callers that sorted with psort.TreeSortArena
// get a fully allocation-free canonicalization path.
func LinearizeSorted(keys []sfc.Key) []sfc.Key {
	keys, _ = LinearizeSortedRanks(keys, nil)
	return keys
}

// LinearizeSortedRanks is LinearizeSorted that compacts the keys' rank
// column in step with them, so a caller that sorted with
// psort.TreeSortArena keeps ranks[i] = curve.Rank(keys[i]) for the
// survivors without ranking them again. ranks is nil or as long as keys; a
// nil column stays nil.
//
//alloc:zero
func LinearizeSortedRanks(keys []sfc.Key, ranks []sfc.Rank128) ([]sfc.Key, []sfc.Rank128) {
	n := 0
	for i, k := range keys {
		if i+1 < len(keys) {
			next := keys[i+1]
			if k == next || k.Contains(next) {
				continue
			}
		}
		keys[n] = k
		if ranks != nil {
			ranks[n] = ranks[i]
		}
		n++
	}
	if ranks != nil {
		ranks = ranks[:n]
	}
	return keys[:n], ranks
}

// IsLinear reports whether keys are sorted and contain no duplicate or
// ancestor/descendant pairs: ranks strictly increase, and no key contains
// its successor.
func IsLinear(curve *sfc.Curve, keys []sfc.Key) bool {
	var prev sfc.Rank128
	for i, k := range keys {
		r := curve.Rank(k)
		if i > 0 && (!prev.Less(r) || keys[i-1].Contains(k)) {
			return false
		}
		prev = r
	}
	return true
}

// IsComplete reports whether the linear octree covers the whole domain:
// the total measure of the leaves equals the measure of the root. Leaves
// must already be linear. Measures are counted in level-MaxLevel cells: the
// root's is 2^90 in 3D, so the sum is kept in two words.
func IsComplete(curve *sfc.Curve, keys []sfc.Key) bool {
	dim := uint(curve.Dim)
	var hi, lo uint64
	for _, k := range keys {
		h, l := pow2(dim * uint(sfc.MaxLevel-int(k.Level)))
		var carry uint64
		lo, carry = bits.Add64(lo, l, 0)
		hi += h + carry
	}
	h, l := pow2(dim * sfc.MaxLevel)
	return hi == h && lo == l
}

// pow2 returns 2^n, for n < 128, as its high and low words.
func pow2(n uint) (hi, lo uint64) {
	if n >= 64 {
		return 1 << (n - 64), 0
	}
	return 0, 1 << n
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
	lo := 0
	for pos := 0; pos < curve.NumChildren(); pos++ {
		label := curve.ChildAt(state, pos)
		child := node.Child(label)
		hi := lo
		for hi < len(seeds) && child.Contains(seeds[hi]) {
			hi++
		}
		completeNode(curve, child, curve.Next(state, pos), seeds[lo:hi], out)
		lo = hi
	}
	if lo != len(seeds) {
		panic(fmt.Errorf("octree: %d seeds not contained in children of %v", len(seeds)-lo, node))
	}
}

// appendChildren appends k's children to out in curve order. They fill
// exactly the stretch of the curve k covered, so writing them where k stood
// keeps a linear sequence linear without a sort.
func appendChildren(out []sfc.Key, curve *sfc.Curve, k sfc.Key) []sfc.Key {
	st := curve.StateAt(k)
	for pos := 0; pos < curve.NumChildren(); pos++ {
		out = append(out, k.Child(curve.ChildAt(st, pos)))
	}
	return out
}

// leafRanks returns the leaves' rank column, computing it on first use.
func (t *Tree) leafRanks() []sfc.Rank128 {
	t.ranksOnce.Do(func() {
		r := make([]sfc.Rank128, len(t.Leaves))
		for i, k := range t.Leaves {
			r[i] = t.Curve.Rank(k)
		}
		t.ranks = r
	})
	return t.ranks
}

// FindLeaf returns the index of the leaf containing point q (a key at any
// level; containment is of q's anchor cell), or -1 if no leaf contains it.
// O(log n) over the rank column.
func (t *Tree) FindLeaf(q sfc.Key) int {
	// The containing leaf is the last leaf ranked at or before q: leaves are
	// disjoint, and an ancestor ranks before its descendants.
	i := sfc.UpperBound(t.leafRanks(), t.Curve.Rank(q))
	if i > 0 && t.Leaves[i-1].Contains(q) {
		return i - 1
	}
	return -1
}
