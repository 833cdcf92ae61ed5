package mesh

import (
	"math/rand"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// distributeMesh partitions a balanced mesh across p ranks and returns each
// rank's leaves plus the splitters (run inside comm.Run).
func distributeMesh(c *comm.Comm, mesh *octree.Tree, curve *sfc.Curve, mode partition.Mode, tol float64) ([]sfc.Key, *partition.Splitters) {
	p := c.Size()
	var local []sfc.Key
	for i, k := range mesh.Leaves {
		if i%p == c.Rank() {
			local = append(local, k)
		}
	}
	res := partition.Partition(c, local, partition.Options{
		Curve: curve, Mode: mode, Tol: tol, Machine: machine.Wisconsin8(),
	})
	return res.Local, res.Splitters
}

func testMesh(t *testing.T, kind sfc.Kind) (*octree.Tree, *sfc.Curve) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	curve := sfc.NewCurve(kind, 3)
	m := octree.Balance21(octree.AdaptiveMesh(rng, 300, 3, octree.Normal, 6))
	return m.WithCurve(curve), curve
}

func TestGhostCoversAllRemoteNeighbors(t *testing.T) {
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		m, curve := testMesh(t, kind)
		p := 6
		ghosts := make([]*Ghost, p)
		sps := make([]*partition.Splitters, p)
		comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
			local, sp := distributeMesh(c, m, curve, partition.EqualWork, 0)
			ghosts[c.Rank()] = Build(c, local, sp)
			sps[c.Rank()] = sp
		})
		// Globally: every leaf's remote face neighbors must be present in
		// the owner's halo.
		tree := octree.New(curve, m.Leaves)
		sp := sps[0]
		for i := range m.Leaves {
			owner := sp.Owner(m.Leaves[i])
			for _, f := range octree.Faces(curve.Dim) {
				nk, ok := octree.FaceNeighbor(m.Leaves[i], f)
				if !ok {
					continue
				}
				for _, j := range tree.FaceLeaves(nk, f) {
					nbOwner := sp.Owner(m.Leaves[j])
					if nbOwner == owner {
						continue
					}
					found := false
					for _, gk := range ghosts[owner].Ghosts {
						if gk == m.Leaves[j] {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%v: leaf %v (rank %d) misses remote neighbor %v (rank %d)",
							kind, m.Leaves[i], owner, m.Leaves[j], nbOwner)
					}
				}
			}
		}
	}
}

func TestGhostSourcesCorrect(t *testing.T) {
	m, curve := testMesh(t, sfc.Hilbert)
	p := 4
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		local, sp := distributeMesh(c, m, curve, partition.EqualWork, 0)
		g := Build(c, local, sp)
		for i, gk := range g.Ghosts {
			if want := sp.Owner(gk); g.GhostSrc[i] != want {
				t.Errorf("rank %d: ghost %v says src %d, owner is %d", c.Rank(), gk, g.GhostSrc[i], want)
			}
		}
		// Local leaves are never their own ghosts.
		for _, gk := range g.Ghosts {
			if sp.Owner(gk) == c.Rank() {
				t.Errorf("rank %d received its own leaf %v as ghost", c.Rank(), gk)
			}
		}
	})
}

// TestGhostWithEmptyRank runs Build and GatherMatrix with rank 0 holding
// no elements, under the splitters SplittersFromDistribution derives, which
// give an empty rank an empty range. Ranks 1 and 2 split the mesh. Rank 0
// must still join every collective, which comm's collective check verifies.
// It sends no ghost; it may receive unused ones, since the ancestors of the
// first leaf sort before rank 1's separator and so map to rank 0.
func TestGhostWithEmptyRank(t *testing.T) {
	m, curve := testMesh(t, sfc.Hilbert)
	half := len(m.Leaves) / 2
	parts := [][]sfc.Key{nil, m.Leaves[:half], m.Leaves[half:]}
	var mat *Matrix
	_, err := comm.RunChecked(len(parts), comm.CostModel{}, func(c *comm.Comm) error {
		local := parts[c.Rank()]
		sp := partition.SplittersFromDistribution(c, curve, local)
		g := Build(c, local, sp)
		got := GatherMatrix(c, g)
		if c.Rank() == 0 {
			mat = got
		}
		for i, gk := range g.Ghosts {
			if owner := sp.Owner(gk); g.GhostSrc[i] != owner || owner == c.Rank() {
				t.Errorf("rank %d: ghost %v says src %d, owner is %d", c.Rank(), gk, g.GhostSrc[i], owner)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mat.P; i++ {
		if mat.At(i, 0) != 0 {
			t.Errorf("empty rank 0 sends rank %d %d ghosts", i, mat.At(i, 0))
		}
	}
	if mat.At(1, 2) == 0 || mat.At(2, 1) == 0 {
		t.Errorf("ranks 1 and 2 share a boundary but M[1][2]=%d M[2][1]=%d", mat.At(1, 2), mat.At(2, 1))
	}
}

func TestMatrixSymmetryOfSupport(t *testing.T) {
	// If i needs data from j, then (face adjacency being symmetric) j needs
	// data from i: the support of M is symmetric.
	m, curve := testMesh(t, sfc.Hilbert)
	p := 5
	var mat *Matrix
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		local, sp := distributeMesh(c, m, curve, partition.EqualWork, 0)
		g := Build(c, local, sp)
		got := GatherMatrix(c, g)
		if c.Rank() == 0 {
			mat = got
		}
	})
	for i := 0; i < p; i++ {
		if mat.At(i, i) != 0 {
			t.Fatalf("diagonal entry M[%d][%d] = %d, want 0", i, i, mat.At(i, i))
		}
		for j := 0; j < p; j++ {
			if (mat.At(i, j) == 0) != (mat.At(j, i) == 0) {
				t.Fatalf("asymmetric support: M[%d][%d]=%d M[%d][%d]=%d",
					i, j, mat.At(i, j), j, i, mat.At(j, i))
			}
		}
	}
	if mat.NNZ() == 0 {
		t.Fatal("no communication at all?")
	}
	if mat.TotalData() <= 0 {
		t.Fatal("no data volume")
	}
	if mat.MaxDegree() < 1 || mat.MaxDegree() > p-1 {
		t.Fatalf("bad MaxDegree %d", mat.MaxDegree())
	}
}

func TestToleranceReducesGhostVolume(t *testing.T) {
	// The end-to-end version of the paper's hypothesis: flexible partitions
	// move fewer ghost elements per matvec.
	rng := rand.New(rand.NewSource(73))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := octree.Balance21(octree.AdaptiveMesh(rng, 1200, 3, octree.Normal, 7)).WithCurve(curve)
	p := 12
	vol := func(mode partition.Mode, tol float64) int64 {
		var total int64
		comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
			local, sp := distributeMesh(c, m, curve, mode, tol)
			g := Build(c, local, sp)
			got := GatherMatrix(c, g)
			if c.Rank() == 0 {
				total = got.TotalData()
			}
		})
		return total
	}
	tight := vol(partition.EqualWork, 0)
	loose := vol(partition.FlexibleTolerance, 0.4)
	if loose >= tight {
		t.Fatalf("tolerance 0.4 ghost volume %d not below equal-work %d", loose, tight)
	}
}
