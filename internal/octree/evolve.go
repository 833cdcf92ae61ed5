package octree

import (
	"fmt"

	"optipart/internal/par"
	"optipart/internal/sfc"
)

// Evolver drives a deterministic refine/coarsen loop over a complete linear
// octree, standing in for the solver-driven adaptivity of a real AMR code:
// each Step refines a pseudo-random fraction of leaves into their 2^dim
// children and coarsens a fraction of complete sibling families into their
// parent, and reports the edit script as a Delta so an incremental consumer
// (the repartitioner's rank cache) can update only what changed.
//
// Every decision is a pure hash of (seed, step, key): the sequence of meshes
// is a function of the seed alone — independent of element placement,
// worker count, and iteration order — so competing partitioning strategies
// can be driven through bit-identical mesh histories.
type Evolver struct {
	// RefineBias and CoarsenBias, when non-nil, scale the per-key
	// probability: the effective fraction for key k at step s is
	// frac·Bias(k, s). Both must be pure functions of their arguments —
	// the determinism and placement-independence of the mesh history
	// depend on it. A bias above 1 concentrates adaptivity (a moving
	// shock front); below 1 suppresses it. See FrontBias.
	RefineBias  func(k sfc.Key, step int) float64
	CoarsenBias func(k sfc.Key, step int) float64

	curve   *sfc.Curve
	seed    uint64
	step    int
	leaves  []sfc.Key
	scratch []sfc.Key
	delta   Delta
}

// Delta is the edit script of one Evolver step, expressed against the old
// leaf array. Walking old indices in order: an index in Refined was replaced
// by its 2^dim children (in curve order); an index in Coarsened starts a
// complete sibling family whose 2^dim entries were replaced by their parent;
// every other index carried its leaf over unchanged. Both lists are sorted
// and disjoint (a coarsened family's non-start members appear in neither).
// The slices are reused by the next Step.
type Delta struct {
	Refined   []int // old-leaf indices replaced by their children
	Coarsened []int // old family-start indices replaced by the parent
	OldLen    int
	NewLen    int
}

// NewEvolver starts an evolution from the given complete linear leaves. The
// leaves are copied; the evolver owns its buffers.
func NewEvolver(curve *sfc.Curve, seed int64, leaves []sfc.Key) *Evolver {
	if !IsLinear(curve, leaves) {
		panic(fmt.Errorf("octree: NewEvolver on a non-linear leaf set"))
	}
	e := &Evolver{curve: curve, seed: uint64(seed)}
	e.leaves = append(e.leaves, leaves...)
	return e
}

// Leaves returns the current mesh. The slice is owned by the evolver and
// valid until the next Step.
func (e *Evolver) Leaves() []sfc.Key { return e.leaves }

// Step advances the mesh one refine/coarsen cycle: complete sibling
// families coarsen with probability coarsenFrac (decided by a hash of the
// parent), remaining leaves below sfc.MaxLevel refine with probability
// refineFrac (decided by a hash of the leaf). Order,
// linearity, and completeness are preserved by construction: a leaf's
// children emitted in curve order (appendChildren) occupy exactly its
// position in the pre-order, as does a family's parent. The returned Delta
// is valid until the next Step.
func (e *Evolver) Step(refineFrac, coarsenFrac float64) Delta {
	e.step++
	n := e.curve.NumChildren()
	old := e.leaves
	out := e.scratch[:0]
	e.delta.Refined = e.delta.Refined[:0]
	e.delta.Coarsened = e.delta.Coarsened[:0]
	for i := 0; i < len(old); {
		k := old[i]
		if k.Level > 0 && i+n <= len(old) {
			parent := k.Parent()
			family := true
			for j := 1; j < n; j++ {
				if old[i+j].Level != k.Level || old[i+j].Parent() != parent {
					family = false
					break
				}
			}
			if family && e.decide(coarsenSalt, parent, coarsenFrac, e.CoarsenBias) {
				e.delta.Coarsened = append(e.delta.Coarsened, i)
				out = append(out, parent)
				i += n
				continue
			}
		}
		if k.Level < sfc.MaxLevel && e.decide(refineSalt, k, refineFrac, e.RefineBias) {
			e.delta.Refined = append(e.delta.Refined, i)
			out = appendChildren(out, e.curve, k)
			i++
			continue
		}
		out = append(out, k)
		i++
	}
	e.scratch, e.leaves = old, out
	e.delta.OldLen, e.delta.NewLen = len(old), len(out)
	return e.delta
}

// Salts separate the refine and coarsen decision streams so a leaf's
// refinement draw is independent of its parent's coarsening draw.
const (
	refineSalt  = 0x9e3779b97f4a7c15
	coarsenSalt = 0xc2b2ae3d27d4eb4f
)

// decide is the hash-based coin flip: true with probability frac, as a pure
// function of (seed, step, key). Hashing instead of drawing from a stream
// makes the decision independent of visit order — two processes walking
// different subsets of the mesh agree on every leaf.
func (e *Evolver) decide(salt uint64, k sfc.Key, frac float64, bias func(sfc.Key, int) float64) bool {
	if bias != nil {
		frac *= bias(k, e.step)
	}
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	h := par.SplitMix64(e.seed ^ salt*uint64(e.step) ^ keyHash(k))
	return float64(h>>11)/(1<<53) < frac
}

// keyHash folds a key's coordinates and level into 64 bits. Coordinates are
// below 2^30, so the two packed words are injective over valid keys.
func keyHash(k sfc.Key) uint64 {
	h := par.SplitMix64(uint64(k.X) | uint64(k.Level)<<32)
	return h ^ par.SplitMix64(uint64(k.Y)|uint64(k.Z)<<32)
}

// FrontBias returns a refine/coarsen bias pair modeling a moving
// refinement front, the load pattern that makes repartitioning worth its
// cost: one child octant of the root is the hotspot, and the hotspot
// advances to the next octant every period steps, cycling through all
// 2^dim. Refinement is amplified by hot inside the hotspot and damped by
// cold outside it; coarsening is the mirror image, so resolution drains
// from octants the front has left. Both functions are pure, preserving the
// Evolver's placement-independent determinism.
func FrontBias(dim, period int, hot, cold float64) (refine, coarsen func(sfc.Key, int) float64) {
	if dim < 1 || dim > 3 {
		panic(fmt.Errorf("octree: FrontBias dimension %d out of range", dim))
	}
	if period < 1 {
		period = 1
	}
	n := 1 << dim
	inFront := func(k sfc.Key, step int) bool {
		if k.Level == 0 {
			return false
		}
		return int(k.ChildLabel(1)) == (step/period)%n
	}
	refine = func(k sfc.Key, step int) float64 {
		if inFront(k, step) {
			return hot
		}
		return cold
	}
	coarsen = func(k sfc.Key, step int) float64 {
		if inFront(k, step) {
			return cold
		}
		return hot
	}
	return refine, coarsen
}
