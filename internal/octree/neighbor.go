package octree

import (
	"errors"

	"optipart/internal/sfc"
)

// Face identifies one of the 2*dim axis-aligned faces of a cell: axis 0..2
// and a direction (false = toward smaller coordinates).
type Face struct {
	Axis int
	Plus bool
}

// faces is the table Faces slices: every face of a 3-D cell, axis-major.
var faces = [6]Face{{0, false}, {0, true}, {1, false}, {1, true}, {2, false}, {2, true}}

// Faces returns the faces of a dim-dimensional cell in a fixed order:
// -x, +x, -y, +y, (-z, +z). The result is a read-only view of a shared
// table (callers range over it, once per key); its capacity is capped so an
// append copies instead of writing into the table.
func Faces(dim int) []Face {
	return faces[: 2*dim : 2*dim]
}

// FaceNeighbor returns the same-level key sharing the given face of k, and
// false when that face lies on the domain boundary.
func FaceNeighbor(k sfc.Key, f Face) (sfc.Key, bool) {
	size := k.Size()
	coord := [3]uint32{k.X, k.Y, k.Z}
	c := coord[f.Axis]
	if f.Plus {
		if c+size >= 1<<sfc.MaxLevel {
			return sfc.Key{}, false
		}
		coord[f.Axis] = c + size
	} else {
		if c == 0 {
			return sfc.Key{}, false
		}
		coord[f.Axis] = c - size
	}
	return sfc.Key{X: coord[0], Y: coord[1], Z: coord[2], Level: k.Level}, true
}

// FaceChildren returns the children of k that touch the given face of k:
// 2^(dim-1) keys. Used to enumerate candidate finer neighbors across a face
// in a 2:1-balanced tree.
func FaceChildren(k sfc.Key, f Face, dim int) []sfc.Key {
	if k.Level >= sfc.MaxLevel {
		return nil
	}
	want := 0
	if f.Plus {
		want = 1
	}
	out := make([]sfc.Key, 0, 1<<(dim-1))
	for label := 0; label < 1<<dim; label++ {
		if label>>f.Axis&1 == want {
			out = append(out, k.Child(label))
		}
	}
	return out
}

// NeighborLeaves returns the indices of all leaves of the complete,
// 2:1-balanced tree t that share a face with leaf index i. In a balanced
// tree a face neighbor is at the same level, one level coarser, or one level
// finer.
func (t *Tree) NeighborLeaves(i int) []int {
	k := t.Leaves[i]
	dim := t.Dim()
	var out []int
	for _, f := range Faces(dim) {
		nk, ok := FaceNeighbor(k, f)
		if !ok {
			continue
		}
		// Same level or coarser: the leaf containing nk's anchor cell.
		if j := t.FindLeaf(nk); j >= 0 {
			out = append(out, j)
			continue
		}
		// Finer: the children of nk touching the shared face. The shared
		// face of nk is the opposite of f.
		opp := Face{Axis: f.Axis, Plus: !f.Plus}
		for _, ck := range FaceChildren(nk, opp, dim) {
			if j := t.FindLeaf(ck); j >= 0 {
				out = append(out, j)
			} else {
				// Deeper than one level: descend through the face children.
				out = append(out, t.faceDescendants(ck, opp)...)
			}
		}
	}
	return out
}

// faceDescendants returns leaves covering the region of key k restricted to
// its given face, descending as deep as needed (for trees that are not
// 2:1 balanced).
func (t *Tree) faceDescendants(k sfc.Key, f Face) []int {
	if j := t.FindLeaf(k); j >= 0 {
		return []int{j}
	}
	if k.Level >= sfc.MaxLevel {
		return nil
	}
	var out []int
	for _, ck := range FaceChildren(k, f, t.Dim()) {
		out = append(out, t.faceDescendants(ck, f)...)
	}
	return out
}

// SurfaceArea returns the total boundary surface of a set of cells in units
// of level-maxDepth faces, counting only faces not shared between two cells
// of the set. It is the partition boundary measure s used in Figures 2 and 3
// of the paper. maxDepth sets the measurement resolution: a face of a
// level-l cell counts as 2^((dim-1)*(maxDepth-l)) unit faces.
//
// The set need not be linear but must be non-overlapping.
func SurfaceArea(curve *sfc.Curve, cells []sfc.Key, maxDepth uint8) uint64 {
	dim := curve.Dim
	t := &Tree{Curve: curve, Leaves: append([]sfc.Key(nil), cells...)}
	Sort(curve, t.Leaves)
	var area uint64
	for _, k := range t.Leaves {
		faceUnits := unitFaces(k, maxDepth, dim)
		for _, f := range Faces(dim) {
			nk, ok := FaceNeighbor(k, f)
			if !ok {
				// Domain boundary: the paper's s measures the partition
				// outline, so include it.
				area += faceUnits
				continue
			}
			covered := t.coveredUnits(nk, Face{f.Axis, !f.Plus}, maxDepth)
			area += faceUnits - covered
		}
	}
	return area
}

// unitFaces returns the number of level-maxDepth unit faces on one face of
// cell k. k.Level must not exceed maxDepth.
func unitFaces(k sfc.Key, maxDepth uint8, dim int) uint64 {
	if k.Level > maxDepth {
		panic(errors.New("octree: cell finer than the surface measurement resolution"))
	}
	units := uint64(1)
	for d := 0; d < dim-1; d++ {
		units *= uint64(1) << (maxDepth - k.Level)
	}
	return units
}

// coveredUnits returns how many level-maxDepth unit faces of key k's face f
// are covered by cells of the set.
func (t *Tree) coveredUnits(k sfc.Key, f Face, maxDepth uint8) uint64 {
	if j := t.FindLeaf(k); j >= 0 {
		return unitFaces(k, maxDepth, t.Dim())
	}
	if k.Level >= maxDepth {
		return 0
	}
	var sum uint64
	for _, ck := range FaceChildren(k, f, t.Dim()) {
		sum += t.coveredUnits(ck, f, maxDepth)
	}
	return sum
}
