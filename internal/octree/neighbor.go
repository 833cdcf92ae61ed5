package octree

import (
	"errors"

	"optipart/internal/psort"
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

// FaceLeaves returns the indices of the leaves across face f of a cell whose
// same-level neighbor there is nk: the leaf containing nk if there is one,
// and otherwise the finer leaves covering nk's face opposite f, depth first
// through FaceChildren. Looping over a leaf's faces with FaceNeighbor and
// FaceLeaves visits all of its face neighbors.
func (t *Tree) FaceLeaves(nk sfc.Key, f Face) []int {
	return t.appendFaceLeaves(nil, nk, Face{Axis: f.Axis, Plus: !f.Plus})
}

// appendFaceLeaves appends to out the leaves covering k's face g.
func (t *Tree) appendFaceLeaves(out []int, k sfc.Key, g Face) []int {
	if j := t.FindLeaf(k); j >= 0 {
		return append(out, j)
	}
	for _, ck := range FaceChildren(k, g, t.Dim()) {
		out = t.appendFaceLeaves(out, ck, g)
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
	psort.TreeSort(curve, t.Leaves)
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
