// Package mesh builds the distributed mesh structures a partitioned FEM
// computation needs: the ghost (halo) layer of remote elements adjacent to
// each rank's partition, and the communication matrix M of §5.5 whose
// number of non-zeros and total volume are the paper's partition-quality
// metrics.
package mesh

import (
	"optipart/internal/comm"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// Ghost is one rank's halo: the remote leaves its elements read during a
// matvec, and the send lists for keeping them fresh.
//
// The construction assumes the global tree is complete and 2:1 face
// balanced, so a leaf's face neighbors are at its own level, one coarser, or
// one finer — the candidate set each rank enumerates locally.
type Ghost struct {
	// Local holds the rank's own leaves in curve order.
	Local []sfc.Key
	// Ghosts holds the received remote leaves, grouped by source rank in
	// the sender's order; GhostSrc[i] is the owner of Ghosts[i].
	Ghosts   []sfc.Key
	GhostSrc []int
	// SendIDs[dst] lists the indices of local leaves whose values must be
	// sent to dst before each matvec, in a fixed order.
	SendIDs [][]int
	// RecvCounts[src] is the number of ghost elements received from src —
	// one row of the communication matrix M.
	RecvCounts []int64
}

// Build constructs the ghost layer collectively. Every rank pushes each
// boundary leaf to the owners of the up-to-(2+2^(dim-1)) possible neighbor
// leaves across each face; with a 2:1-balanced complete tree this reaches
// exactly the ranks that need it (plus, rarely, a rank that owns no actual
// neighbor, which then simply stores an unused ghost).
func Build(c *comm.Comm, local []sfc.Key, sp *partition.Splitters) *Ghost {
	curve := sp.Curve
	p := c.Size()
	me := c.Rank()

	g := &Ghost{Local: local, SendIDs: make([][]int, p), RecvCounts: make([]int64, p)}
	for i, k := range local {
		for _, f := range octree.Faces(curve.Dim) {
			nk, ok := octree.FaceNeighbor(k, f)
			if !ok {
				continue
			}
			for _, dst := range neighborOwners(sp, nk, f, curve.Dim) {
				// i ascends, so each list stays sorted and a repeat of i
				// can only be its last entry.
				if ids := g.SendIDs[dst]; dst != me && (len(ids) == 0 || ids[len(ids)-1] != i) {
					g.SendIDs[dst] = append(ids, i)
				}
			}
		}
	}
	// A pass over local elements examining each face: the bucketing cost.
	c.Compute(int64(len(local)) * int64(2*curve.Dim) * psort.KeyBytes)

	send := make([][]sfc.Key, p)
	for dst, ids := range g.SendIDs {
		keys := make([]sfc.Key, len(ids))
		for j, i := range ids {
			keys[j] = local[i]
		}
		send[dst] = keys
	}
	// The halo graph is sparse; price it as a neighbor exchange.
	recv := comm.Alltoallv(c, send, psort.KeyBytes, comm.AlltoallvOptions{Sparse: true})
	for src := 0; src < p; src++ {
		g.RecvCounts[src] = int64(len(recv[src]))
		for _, k := range recv[src] {
			g.Ghosts = append(g.Ghosts, k)
			g.GhostSrc = append(g.GhostSrc, src)
		}
	}
	return g
}

// neighborOwners returns the ranks that may own the leaf covering the
// region of same-level neighbor key nk across face f of the original leaf:
// the owner of nk itself, of its parent, and of each child of nk touching
// the shared face.
func neighborOwners(sp *partition.Splitters, nk sfc.Key, f octree.Face, dim int) []int {
	opp := octree.Face{Axis: f.Axis, Plus: !f.Plus}
	owners := make([]int, 0, 2+1<<(dim-1))
	owners = append(owners, sp.Owner(nk))
	if nk.Level > 0 {
		owners = append(owners, sp.Owner(nk.Parent()))
	}
	if nk.Level < sfc.MaxLevel {
		for _, ck := range octree.FaceChildren(nk, opp, dim) {
			owners = append(owners, sp.Owner(ck))
		}
	}
	// Dedup in place (the list is tiny).
	out := owners[:0]
	for _, o := range owners {
		seen := false
		for _, q := range out {
			if q == o {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, o)
		}
	}
	return out
}

// SendVolume returns the number of elements this rank sends per refresh.
func (g *Ghost) SendVolume() int64 {
	var n int64
	for _, ids := range g.SendIDs {
		n += int64(len(ids))
	}
	return n
}
