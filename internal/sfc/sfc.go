// Package sfc implements the space-filling curves (Morton and Hilbert) used
// by the partitioner, over octant keys in two or three dimensions.
//
// A Key identifies a square (2D) or cubic (3D) region of the unit domain by
// its anchor — the corner that is smallest along every dimension — and its
// refinement level. Coordinates are integers on a 2^MaxLevel grid, so a key
// at level l has its low (MaxLevel-l) anchor bits equal to zero. This is the
// region representation from §2 of the paper: "the anchor (x,y,z) and the
// level l ∈ [0, Dmax)" with Dmax = 30 so coordinates fit unsigned 32-bit
// integers.
//
// Both curves are exposed through a common child-visit state machine (Curve)
// so that TreeSort and OptiPart are agnostic to the curve choice: at every
// tree node the curve supplies the permutation Rh of the 2^dim children and
// the orientation state for each child subtree.
package sfc

import (
	"errors"
	"fmt"
)

// MaxLevel is Dmax, the maximum refinement depth. Anchors are integers in
// [0, 2^MaxLevel), matching the paper's trees of depth 30.
const MaxLevel = 30

// Key identifies an octant (3D) or quadrant (2D): the anchor coordinates and
// the refinement level. For 2D keys Z must be zero.
type Key struct {
	X, Y, Z uint32
	Level   uint8
}

// RootKey is the whole domain: level 0, anchor at the origin.
var RootKey = Key{}

// Valid reports whether the key's level is within range and its anchor bits
// below the level grid are zero (i.e. the anchor is aligned to the key's own
// resolution) for the given dimension.
func (k Key) Valid(dim int) bool {
	if k.Level > MaxLevel {
		return false
	}
	// One mask covers both conditions: the bits below the level grid and
	// the bits at or above 2^MaxLevel must all be zero.
	mask := lowMask(MaxLevel-int(k.Level)) | ^lowMask(MaxLevel)
	if (k.X|k.Y|k.Z)&mask != 0 {
		return false
	}
	return dim != 2 || k.Z == 0
}

// Size returns the edge length of the key's region in grid units.
func (k Key) Size() uint32 {
	return 1 << (MaxLevel - int(k.Level))
}

// ChildLabel returns the child index of the key's region at subdivision
// depth t (1-based, t <= k.Level): bit (MaxLevel-t) of each coordinate packed
// as x | y<<1 | z<<2. This is the child_num(a) of Algorithm 1 evaluated at
// level t.
func (k Key) ChildLabel(t int) int {
	shift := MaxLevel - t
	return int((k.X>>shift)&1) | int((k.Y>>shift)&1)<<1 | int((k.Z>>shift)&1)<<2
}

// Child returns the child of k with the given label (x | y<<1 | z<<2).
func (k Key) Child(label int) Key {
	if k.Level >= MaxLevel {
		panic(errors.New("sfc: Child of a maximum-level key"))
	}
	shift := MaxLevel - int(k.Level) - 1
	return Key{
		X:     k.X | uint32(label&1)<<shift,
		Y:     k.Y | uint32(label>>1&1)<<shift,
		Z:     k.Z | uint32(label>>2&1)<<shift,
		Level: k.Level + 1,
	}
}

// Parent returns the key's ancestor one level up. Parent of the root is the
// root itself.
func (k Key) Parent() Key {
	if k.Level == 0 {
		return k
	}
	l := k.Level - 1
	mask := ^lowMask(MaxLevel - int(l))
	return Key{X: k.X & mask, Y: k.Y & mask, Z: k.Z & mask, Level: l}
}

// Ancestor returns the key's ancestor at the given level (level <= k.Level).
func (k Key) Ancestor(level uint8) Key {
	if level > k.Level {
		panic(fmt.Errorf("sfc: Ancestor level %d below key level %d", level, k.Level))
	}
	mask := ^lowMask(MaxLevel - int(level))
	return Key{X: k.X & mask, Y: k.Y & mask, Z: k.Z & mask, Level: level}
}

// Contains reports whether other's region lies within k's region (equality
// counts as containment).
func (k Key) Contains(other Key) bool {
	return k.Level <= other.Level && other.Ancestor(k.Level) == k
}

func (k Key) String() string {
	return fmt.Sprintf("(%d,%d,%d)/%d", k.X, k.Y, k.Z, k.Level)
}

func lowMask(bits int) uint32 {
	return 1<<bits - 1
}
