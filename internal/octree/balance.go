package octree

import (
	"optipart/internal/par"
	"optipart/internal/sfc"
)

// balanceGrain fixes the chunk layout of Balance21's neighbor scan
// independently of the worker count.
const balanceGrain = 1 << 11

// Balance21 enforces the 2:1 face-balance condition on a complete linear
// octree: leaves sharing a face differ by at most one refinement level. It
// returns a new balanced tree; the input is not modified.
//
// The implementation is the classic ripple propagation: repeatedly split any
// leaf that is more than one level coarser than a face neighbor until a
// fixed point is reached. Each round strictly refines, and levels are
// bounded by MaxLevel, so it terminates. A split leaf's children are written
// in curve order where the leaf stood (appendChildren), as Evolver.Step
// does: the split leaves are disjoint, so the next round's leaves are linear
// without a sort.
func Balance21(t *Tree) *Tree {
	leaves := append([]sfc.Key(nil), t.Leaves...)
	curve := t.Curve
	for {
		work := &Tree{Curve: curve, Leaves: leaves}
		// The neighbor scans are pure lookups (FindLeaf is a binary search
		// over the round's rank column, built once behind a sync.Once), so
		// they chunk across the pool; each chunk collects the leaf indices it
		// wants split and the marks merge serially. Marking is an idempotent
		// set union, so the boolean vector does not depend on the worker
		// count. A tree of one chunk, or a pool of width 1, scans inline.
		marks := make([][]int, par.NumChunks(len(leaves), balanceGrain))
		par.ForChunks(len(leaves), balanceGrain, func(c, lo, hi int) {
			var local []int
			for _, k := range leaves[lo:hi] {
				for _, f := range Faces(curve.Dim) {
					nk, ok := FaceNeighbor(k, f)
					if !ok {
						continue
					}
					j := work.FindLeaf(nk)
					if j >= 0 && int(leaves[j].Level) < int(k.Level)-1 {
						local = append(local, j)
					}
				}
			}
			marks[c] = local
		})
		split := make([]bool, len(leaves))
		any := false
		for _, m := range marks {
			for _, j := range m {
				if !split[j] {
					split[j] = true
					any = true
				}
			}
		}
		if !any {
			return work
		}
		next := make([]sfc.Key, 0, len(leaves)+8)
		for i, k := range leaves {
			if split[i] {
				next = appendChildren(next, curve, k)
			} else {
				next = append(next, k)
			}
		}
		leaves = next
	}
}

// IsBalanced21 reports whether every pair of face-adjacent leaves differs by
// at most one level. The tree must be complete and linear.
func IsBalanced21(t *Tree) bool {
	for _, k := range t.Leaves {
		for _, f := range Faces(t.Dim()) {
			nk, ok := FaceNeighbor(k, f)
			if !ok {
				continue
			}
			if j := t.FindLeaf(nk); j >= 0 {
				if int(k.Level)-int(t.Leaves[j].Level) > 1 {
					return false
				}
			}
		}
	}
	return true
}
