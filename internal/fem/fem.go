// Package fem implements the paper's test application (§5.3): repeated
// application of an adaptively discretized Laplacian operator — the matvec
// at the heart of FEM solvers — on a partitioned, 2:1-balanced octree mesh,
// with ghost exchange between applications. Solving the 3D Poisson problem
// with zero Dirichlet boundary conditions on the unit cube reduces to a
// sequence of these matvecs inside a conjugate-gradient iteration.
//
// Substitution note: the paper assembles a trilinear finite-element
// Laplacian; we use the cell-centered finite-volume Laplacian on the same
// meshes. Both are symmetric positive definite discretizations of -Δ whose
// matvec touches each element and its face neighbors (α ≈ 8 accesses per
// element, §3.3) and whose distributed form needs exactly one ghost
// refresh per application — the communication pattern, which is what the
// partitioning experiments measure, is identical.
package fem

import (
	"errors"
	"math"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/mesh"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// entry is one off-diagonal coupling of the operator: the value at
// vals[Idx] is weighted by -W, and W is added to the diagonal.
type entry struct {
	Idx int32
	W   float64
}

// Problem is one rank's share of the discretized operator.
type Problem struct {
	Curve  *sfc.Curve
	Local  []sfc.Key
	Ghost  *mesh.Ghost
	Kernel Kernel

	adj  [][]entry // per local element: couplings into the values array
	diag []float64 // per local element: diagonal (incl. Dirichlet faces)

	nLocal int
}

// Setup builds the distributed operator for the given partitioned leaves.
// The leaves must form (collectively) a complete, 2:1-balanced linear
// octree, each rank holding its partition in curve order. Collective.
func Setup(c *comm.Comm, local []sfc.Key, sp *partition.Splitters) *Problem {
	return SetupKernel(c, local, sp, Laplacian())
}

// SetupKernel is Setup with an explicit application kernel, which controls
// the α charged per element and the wire size of ghost elements.
func SetupKernel(c *comm.Comm, local []sfc.Key, sp *partition.Splitters, kernel Kernel) *Problem {
	curve := sp.Curve
	g := mesh.Build(c, local, sp)
	p := &Problem{
		Curve:  curve,
		Local:  local,
		Ghost:  g,
		Kernel: kernel,
		adj:    make([][]entry, len(local)),
		diag:   make([]float64, len(local)),
		nLocal: len(local),
	}

	// Combined lookup tree over local + ghost leaves. Values array layout:
	// [0, nLocal) local, [nLocal, nLocal+nGhosts) ghosts in receive order.
	combined := make([]sfc.Key, 0, len(local)+len(g.Ghosts))
	combined = append(combined, local...)
	combined = append(combined, g.Ghosts...)
	valIdx := make(map[sfc.Key]int32, len(combined))
	for i, k := range combined {
		if _, dup := valIdx[k]; !dup {
			valIdx[k] = int32(i)
		}
	}
	keys := append([]sfc.Key(nil), combined...)
	keys = octree.Linearize(curve, keys)
	tree := octree.New(curve, keys)

	h := func(k sfc.Key) float64 {
		return float64(k.Size()) / float64(uint32(1)<<sfc.MaxLevel)
	}
	for i, k := range local {
		hi := h(k)
		for _, f := range octree.Faces(curve.Dim) {
			nk, ok := octree.FaceNeighbor(k, f)
			if !ok {
				// Domain boundary: zero Dirichlet ghost cell at distance
				// hi/2 through a full face.
				p.diag[i] += faceArea(hi, curve.Dim) / (hi / 2)
				continue
			}
			// The leaves covering nk across the shared face: same level,
			// coarser, or finer (2:1).
			for _, j := range tree.FaceLeaves(nk, f) {
				nb := tree.Leaves[j]
				hj := h(nb)
				area := faceArea(math.Min(hi, hj), curve.Dim)
				w := area / ((hi + hj) / 2)
				idx, known := valIdx[nb]
				if !known {
					// A ghost the push protocol did not deliver would be a
					// balance violation; fail loudly.
					panic(errors.New("fem: neighbor leaf missing from halo — mesh not 2:1 balanced?"))
				}
				p.adj[i] = append(p.adj[i], entry{Idx: idx, W: w})
				p.diag[i] += w
			}
		}
	}
	return p
}

// faceArea returns the measure of a face of side h in the unit domain.
func faceArea(h float64, dim int) float64 {
	a := 1.0
	for d := 0; d < dim-1; d++ {
		a *= h
	}
	return a
}

// NumLocal returns the number of elements this rank owns.
func (p *Problem) NumLocal() int { return p.nLocal }

// NewVector allocates a values array sized for local elements plus ghosts.
// Only the first NumLocal entries are owned; the tail is halo space.
func (p *Problem) NewVector() []float64 {
	return make([]float64, p.nLocal+len(p.Ghost.Ghosts))
}

// RefreshGhosts fills the halo tail of x with the current values of the
// owning ranks. Collective. Returns the number of elements this rank sent.
//
// The exchange is priced as a sparse nonblocking neighbor exchange, and
// each element is billed at machine.GhostPayloadBytes on the wire: a real
// FEM halo carries the element's nodal data, not one scalar.
func (p *Problem) RefreshGhosts(c *comm.Comm, x []float64) int64 {
	send := make([][]float64, c.Size())
	for dst, ids := range p.Ghost.SendIDs {
		buf := make([]float64, len(ids))
		for j, i := range ids {
			buf[j] = x[i]
		}
		send[dst] = buf
	}
	recv := comm.Alltoallv(c, send, p.Kernel.PayloadBytes, comm.AlltoallvOptions{Sparse: true})
	at := p.nLocal
	for src := 0; src < c.Size(); src++ {
		copy(x[at:], recv[src])
		at += len(recv[src])
	}
	return p.Ghost.SendVolume()
}

// Matvec computes y = A·x for the discretized Laplacian, refreshing the
// halo first. x and y must come from NewVector; only the local prefix of y
// is written. Collective.
func (p *Problem) Matvec(c *comm.Comm, x, y []float64) {
	c.SetPhase("halo")
	p.RefreshGhosts(c, x)
	c.SetPhase("compute")
	for i := range p.adj {
		v := p.diag[i] * x[i]
		for _, e := range p.adj[i] {
			v -= e.W * x[e.Idx]
		}
		y[i] = v
	}
	// α memory accesses per element, one word each (§3.3).
	c.Compute(int64(float64(p.nLocal) * p.Kernel.Alpha * machine.WordBytes))
}

// Dot returns the global inner product of the local prefixes. Collective.
func (p *Problem) Dot(c *comm.Comm, a, b []float64) float64 {
	var s float64
	for i := 0; i < p.nLocal; i++ {
		s += a[i] * b[i]
	}
	c.Compute(int64(p.nLocal) * 2 * machine.WordBytes)
	return comm.AllreduceScalar(c, s, 8, comm.SumF64)
}
