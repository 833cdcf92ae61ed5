package optipart_test

import (
	"math/rand"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/fem"
	"optipart/internal/machine"
	"optipart/internal/mesh"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/power"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// TestPublicAPIEndToEnd drives the whole pipeline through the exported
// names of the internal packages, as the commands do: generate, partition
// with OptiPart, build the FEM operator, run a matvec campaign, and measure
// energy.
func TestPublicAPIEndToEnd(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Wisconsin8()
	tree := octree.Balance21(octree.AdaptiveMesh(
		rand.New(rand.NewSource(1)), 200, 3, octree.Normal, 6)).WithCurve(curve)

	p := 8
	var quality partition.Quality
	var nnz int
	st := comm.Run(p, m.CostModel(), func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range tree.Leaves {
			if i%p == c.Rank() {
				local = append(local, k)
			}
		}
		res := partition.Partition(c, local, partition.Options{
			Curve:   curve,
			Mode:    partition.ModelDriven,
			Machine: m,
		})
		prob := fem.Setup(c, res.Local, res.Splitters)
		mat := mesh.GatherMatrix(c, prob.Ghost)
		fem.RunCampaign(c, prob, 5, 7)
		if c.Rank() == 0 {
			quality = res.Quality
			nnz = mat.NNZ()
		}
	})
	if quality.N != int64(tree.Len()) {
		t.Fatalf("partition covered %d of %d elements", quality.N, tree.Len())
	}
	if nnz == 0 {
		t.Fatal("no communication structure")
	}
	if st.Time() <= 0 {
		t.Fatal("no modeled time")
	}
	busy := make([]float64, p)
	for r := 0; r < p; r++ {
		busy[r] = st.PhaseTimes[r]["compute"]
	}
	meas := power.Measure(power.JobFromRankTimes(m, busy, st.Time()), rand.New(rand.NewSource(2)))
	if meas.TotalEnergy() <= 0 {
		t.Fatal("no energy measured")
	}
}

func TestPublicAPISortAndBaseline(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	keys := octree.RandomKeys(rand.New(rand.NewSource(3)), 1000, 3, octree.LogNormal, 1, 12)
	psort.TreeSort(curve, keys)
	for i := 1; i < len(keys); i++ {
		if curve.Compare(keys[i], keys[i-1]) < 0 {
			t.Fatal("TreeSort output unsorted")
		}
	}
	comm.Run(4, machine.Titan().CostModel(), func(c *comm.Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		local := octree.RandomKeys(rng, 500, 3, octree.Uniform, 1, 10)
		out := psort.SampleSort(c, local, curve)
		for i := 1; i < len(out); i++ {
			if curve.Compare(out[i], out[i-1]) < 0 {
				t.Error("SampleSort output unsorted")
				return
			}
		}
	})
}

func TestPublicAPIQualityAndMachines(t *testing.T) {
	for _, m := range []machine.Machine{machine.Titan(), machine.Stampede(), machine.Clemson32(), machine.Wisconsin8()} {
		if m.CoresPerNode*m.Nodes <= 0 {
			t.Fatalf("%s has no cores", m.Name)
		}
		if m.Predict(machine.DefaultAlpha, 1000, 100) <= 0 {
			t.Fatalf("%s predicts non-positive time", m.Name)
		}
	}
}
