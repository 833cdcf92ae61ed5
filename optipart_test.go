package optipart_test

import (
	"math/rand"
	"testing"

	"optipart"
)

// TestPublicAPIEndToEnd drives the whole pipeline through the public
// facade: generate, partition with OptiPart, build the FEM operator, run a
// matvec campaign, and measure energy.
func TestPublicAPIEndToEnd(t *testing.T) {
	curve := optipart.NewCurve(optipart.Hilbert, 3)
	m := optipart.Wisconsin8()
	mesh := optipart.Balance21(optipart.AdaptiveMesh(
		rand.New(rand.NewSource(1)), 200, 3, optipart.Normal, 6)).WithCurve(curve)

	p := 8
	var quality optipart.Quality
	var nnz int
	st := optipart.Run(p, m, func(c *optipart.Comm) {
		var local []optipart.Key
		for i, k := range mesh.Leaves {
			if i%p == c.Rank() {
				local = append(local, k)
			}
		}
		res := optipart.Partition(c, local, optipart.Options{
			Curve:   curve,
			Mode:    optipart.ModelDriven,
			Machine: m,
		})
		prob := optipart.SetupPoisson(c, res.Local, res.Splitters)
		mat := optipart.GatherCommMatrix(c, prob.Ghost)
		optipart.RunMatvecs(c, prob, 5, 7)
		if c.Rank() == 0 {
			quality = res.Quality
			nnz = mat.NNZ()
		}
	})
	if quality.N != int64(mesh.Len()) {
		t.Fatalf("partition covered %d of %d elements", quality.N, mesh.Len())
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
	meas := optipart.MeasureEnergy(m, busy, st.Time(), rand.New(rand.NewSource(2)))
	if meas.TotalEnergy() <= 0 {
		t.Fatal("no energy measured")
	}
}

func TestPublicAPISortAndBaseline(t *testing.T) {
	curve := optipart.NewCurve(optipart.Morton, 3)
	keys := optipart.RandomKeys(rand.New(rand.NewSource(3)), 1000, 3, optipart.LogNormal, 1, 12)
	optipart.TreeSort(curve, keys)
	for i := 1; i < len(keys); i++ {
		if curve.Compare(keys[i], keys[i-1]) < 0 {
			t.Fatal("TreeSort output unsorted")
		}
	}
	optipart.Run(4, optipart.Titan(), func(c *optipart.Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		local := optipart.RandomKeys(rng, 500, 3, optipart.Uniform, 1, 10)
		out := optipart.SampleSort(c, local, curve)
		for i := 1; i < len(out); i++ {
			if curve.Compare(out[i], out[i-1]) < 0 {
				t.Error("SampleSort output unsorted")
				return
			}
		}
	})
}

func TestPublicAPIQualityAndMachines(t *testing.T) {
	for _, m := range []optipart.Machine{optipart.Titan(), optipart.Stampede(), optipart.Clemson32(), optipart.Wisconsin8()} {
		if m.CoresPerNode*m.Nodes <= 0 {
			t.Fatalf("%s has no cores", m.Name)
		}
		if m.Predict(optipart.DefaultAlpha, 1000, 100) <= 0 {
			t.Fatalf("%s predicts non-positive time", m.Name)
		}
	}
}
