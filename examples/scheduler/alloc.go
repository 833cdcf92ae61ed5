// The allocator applies SFC ordering to the paper's second motivating use
// case: resource allocation on a cluster (§1–§2, refs [3, 32]). Titan's
// Gemini interconnect is a 3D torus of nodes; a job scheduler that assigns
// each job a contiguous run of nodes along a space-filling curve over the
// torus coordinates gives every job a geometrically compact allocation,
// which shortens its internal communication paths — the same locality
// argument as mesh partitioning, one level up.
//
// This file implements a small SLURM-like allocator with three placement
// policies (linear node-id order, Morton, Hilbert) and the pairwise-hop
// metric used to compare them.

package main

import (
	"cmp"
	"fmt"
	"slices"

	"optipart/internal/sfc"
)

// Torus describes a 3D torus of nodes, e.g. Titan's 25×16×24 Gemini mesh
// (each Gemini router serves two nodes; we model the router grid).
type Torus struct {
	NX, NY, NZ int
}

// TitanTorus returns the approximate Titan Gemini topology.
func TitanTorus() Torus { return Torus{NX: 25, NY: 16, NZ: 24} }

// Nodes returns the node count.
func (t Torus) Nodes() int { return t.NX * t.NY * t.NZ }

// Coord returns the torus coordinates of node id under the given ordering.
type Coord struct{ X, Y, Z int }

// HopDistance returns the torus (wrap-around) Manhattan distance between
// two coordinates — the Gemini routing hop count.
func (t Torus) HopDistance(a, b Coord) int {
	return wrapDist(a.X, b.X, t.NX) + wrapDist(a.Y, b.Y, t.NY) + wrapDist(a.Z, b.Z, t.NZ)
}

func wrapDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// Policy orders the torus nodes; jobs are allocated contiguous runs of this
// order.
type Policy int

const (
	// Linear is the naive node-id order: x fastest, then y, then z.
	Linear Policy = iota
	// MortonOrder orders nodes along the Z-order curve over (x, y, z).
	MortonOrder
	// HilbertOrder orders nodes along the Hilbert curve over (x, y, z).
	HilbertOrder
)

func (p Policy) String() string {
	switch p {
	case Linear:
		return "linear"
	case MortonOrder:
		return "morton"
	case HilbertOrder:
		return "hilbert"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Allocator hands out contiguous node ranges of a torus in policy order,
// and reclaims them on job completion (first-fit over free runs, as SLURM's
// linear plugin does).
type Allocator struct {
	torus  Torus
	order  []Coord // position in policy order -> torus coordinate
	free   []run   // sorted, disjoint free runs over order positions
	policy Policy
}

type run struct{ lo, hi int } // [lo, hi)

// NewAllocator builds an allocator over the torus with the given policy.
func NewAllocator(t Torus, policy Policy) *Allocator {
	a := &Allocator{torus: t, policy: policy}
	a.order = orderNodes(t, policy)
	a.free = []run{{0, len(a.order)}}
	return a
}

// orderNodes produces the node visit order for a policy.
func orderNodes(t Torus, policy Policy) []Coord {
	coords := make([]Coord, 0, t.Nodes())
	for z := 0; z < t.NZ; z++ {
		for y := 0; y < t.NY; y++ {
			for x := 0; x < t.NX; x++ {
				coords = append(coords, Coord{x, y, z})
			}
		}
	}
	if policy == Linear {
		return coords
	}
	kind := sfc.Morton
	if policy == HilbertOrder {
		kind = sfc.Hilbert
	}
	curve := sfc.NewCurve(kind, 3)
	// Embed the (small) torus grid into the key space: level such that
	// 2^level covers the largest dimension.
	level := uint8(1)
	for (1 << level) < max(t.NX, t.NY, t.NZ) {
		level++
	}
	shift := uint(sfc.MaxLevel - level)
	idx := func(c Coord) uint64 {
		return curve.Index(sfc.Key{
			X: uint32(c.X) << shift, Y: uint32(c.Y) << shift, Z: uint32(c.Z) << shift,
			Level: level,
		})
	}
	slices.SortFunc(coords, func(a, b Coord) int { return cmp.Compare(idx(a), idx(b)) })
	return coords
}

// Alloc reserves n nodes and returns their torus coordinates, or nil if no
// contiguous run of n nodes is free (first fit).
func (a *Allocator) Alloc(n int) []Coord {
	for i, r := range a.free {
		if r.hi-r.lo >= n {
			got := make([]Coord, n)
			copy(got, a.order[r.lo:r.lo+n])
			if r.hi-r.lo == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i].lo += n
			}
			return got
		}
	}
	return nil
}

// Free returns previously allocated nodes to the pool. The nodes must have
// come from Alloc.
func (a *Allocator) Free(nodes []Coord) {
	pos := make(map[Coord]int, len(a.order))
	for i, c := range a.order {
		pos[c] = i
	}
	idxs := make([]int, len(nodes))
	for i, c := range nodes {
		idxs[i] = pos[c]
	}
	slices.Sort(idxs)
	for _, i := range idxs {
		a.free = append(a.free, run{i, i + 1})
	}
	a.coalesce()
}

func (a *Allocator) coalesce() {
	slices.SortFunc(a.free, func(x, y run) int { return cmp.Compare(x.lo, y.lo) })
	out := a.free[:0]
	for _, r := range a.free {
		if n := len(out); n > 0 && out[n-1].hi == r.lo {
			out[n-1].hi = r.hi
			continue
		}
		out = append(out, r)
	}
	a.free = out
}

// AvgPairwiseHops returns the mean torus hop distance over all node pairs
// of an allocation — the job's expected communication path length. Lower is
// better; compact allocations win.
func (t Torus) AvgPairwiseHops(nodes []Coord) float64 {
	if len(nodes) < 2 {
		return 0
	}
	var sum, cnt int64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			sum += int64(t.HopDistance(nodes[i], nodes[j]))
			cnt++
		}
	}
	return float64(sum) / float64(cnt)
}

// BoundingVolume returns the volume of the axis-aligned (non-wrapped)
// bounding box of an allocation, a fragmentation proxy.
func BoundingVolume(nodes []Coord) int {
	if len(nodes) == 0 {
		return 0
	}
	minC, maxC := nodes[0], nodes[0]
	for _, c := range nodes {
		if c.X < minC.X {
			minC.X = c.X
		}
		if c.Y < minC.Y {
			minC.Y = c.Y
		}
		if c.Z < minC.Z {
			minC.Z = c.Z
		}
		if c.X > maxC.X {
			maxC.X = c.X
		}
		if c.Y > maxC.Y {
			maxC.Y = c.Y
		}
		if c.Z > maxC.Z {
			maxC.Z = c.Z
		}
	}
	return (maxC.X - minC.X + 1) * (maxC.Y - minC.Y + 1) * (maxC.Z - minC.Z + 1)
}
