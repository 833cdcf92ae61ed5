package fem

import (
	"math"
	"math/rand"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// buildDistributed partitions the mesh and sets up the operator on p ranks,
// returning per-rank problems and each rank's result vector after applying
// A to the globally deterministic vector valueOf(key).
func applyGlobal(t *testing.T, m *octree.Tree, curve *sfc.Curve, p int, mode partition.Mode, tol float64, valueOf func(sfc.Key) float64) map[sfc.Key]float64 {
	t.Helper()
	out := make([]map[sfc.Key]float64, p)
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range m.Leaves {
			if i%p == c.Rank() {
				local = append(local, k)
			}
		}
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: mode, Tol: tol, Machine: machine.Wisconsin8(),
		})
		prob := Setup(c, res.Local, res.Splitters)
		x := prob.NewVector()
		y := prob.NewVector()
		for i, k := range res.Local {
			x[i] = valueOf(k)
		}
		prob.Matvec(c, x, y)
		mine := make(map[sfc.Key]float64, len(res.Local))
		for i, k := range res.Local {
			mine[k] = y[i]
		}
		out[c.Rank()] = mine
	})
	merged := make(map[sfc.Key]float64, m.Len())
	for _, mm := range out {
		for k, v := range mm {
			merged[k] = v
		}
	}
	return merged
}

func balancedMesh(t *testing.T, kind sfc.Kind, seeds int, depth uint8) (*octree.Tree, *sfc.Curve) {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	curve := sfc.NewCurve(kind, 3)
	m := octree.Balance21(octree.AdaptiveMesh(rng, seeds, 3, octree.Normal, depth))
	return m.WithCurve(curve), curve
}

func keyValue(k sfc.Key) float64 {
	// A smooth-ish deterministic function of the cell center.
	cx := float64(k.X) + float64(k.Size())/2
	cy := float64(k.Y) + float64(k.Size())/2
	cz := float64(k.Z) + float64(k.Size())/2
	s := float64(uint32(1) << sfc.MaxLevel)
	return math.Sin(cx/s) + 0.5*math.Cos(cy/s) + 0.25*cz/s
}

func TestMatvecMatchesSequential(t *testing.T) {
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		m, curve := balancedMesh(t, kind, 150, 6)
		seq := applyGlobal(t, m, curve, 1, partition.EqualWork, 0, keyValue)
		par := applyGlobal(t, m, curve, 5, partition.EqualWork, 0, keyValue)
		if len(seq) != m.Len() || len(par) != m.Len() {
			t.Fatalf("%v: lost elements: seq=%d par=%d mesh=%d", kind, len(seq), len(par), m.Len())
		}
		for k, v := range seq {
			pv, ok := par[k]
			if !ok {
				t.Fatalf("%v: element %v missing in parallel result", kind, k)
			}
			if math.Abs(pv-v) > 1e-9*(1+math.Abs(v)) {
				t.Fatalf("%v: matvec differs at %v: %g vs %g", kind, k, pv, v)
			}
		}
	}
}

func TestMatvecFlexiblePartitionSameAnswer(t *testing.T) {
	// Changing the partition must never change the operator.
	m, curve := balancedMesh(t, sfc.Hilbert, 150, 6)
	a := applyGlobal(t, m, curve, 4, partition.EqualWork, 0, keyValue)
	b := applyGlobal(t, m, curve, 4, partition.FlexibleTolerance, 0.4, keyValue)
	for k, v := range a {
		if math.Abs(b[k]-v) > 1e-9*(1+math.Abs(v)) {
			t.Fatalf("flexible partition changed matvec at %v: %g vs %g", k, b[k], v)
		}
	}
}

func TestMatvecConstantNullsInterior(t *testing.T) {
	// For a constant field the Laplacian vanishes on cells with no domain-
	// boundary face (zero row sum of the interior stencil).
	m, curve := balancedMesh(t, sfc.Hilbert, 100, 6)
	res := applyGlobal(t, m, curve, 3, partition.EqualWork, 0, func(sfc.Key) float64 { return 1 })
	interior := 0
	for _, k := range m.Leaves {
		onBoundary := false
		for _, f := range octree.Faces(3) {
			if _, ok := octree.FaceNeighbor(k, f); !ok {
				onBoundary = true
				break
			}
		}
		if onBoundary {
			if res[k] <= 0 {
				t.Fatalf("boundary cell %v should feel the Dirichlet wall, got %g", k, res[k])
			}
			continue
		}
		interior++
		if math.Abs(res[k]) > 1e-9 {
			t.Fatalf("interior cell %v: A·1 = %g, want 0", k, res[k])
		}
	}
	if interior == 0 {
		t.Fatal("mesh has no interior cells; test is vacuous")
	}
}

func TestOperatorSymmetric(t *testing.T) {
	// <Ax, y> == <x, Ay> for the SPD Laplacian.
	m, curve := balancedMesh(t, sfc.Hilbert, 80, 5)
	var lhs, rhs float64
	comm.Run(4, comm.CostModel{}, func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range m.Leaves {
			if i%4 == c.Rank() {
				local = append(local, k)
			}
		}
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: partition.EqualWork, Machine: machine.Wisconsin8(),
		})
		prob := Setup(c, res.Local, res.Splitters)
		rng := rand.New(rand.NewSource(int64(500 + c.Rank())))
		x := prob.NewVector()
		y := prob.NewVector()
		ax := prob.NewVector()
		ay := prob.NewVector()
		for i := 0; i < prob.NumLocal(); i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		prob.Matvec(c, x, ax)
		prob.Matvec(c, y, ay)
		l := prob.Dot(c, ax, y)
		r := prob.Dot(c, x, ay)
		if c.Rank() == 0 {
			lhs, rhs = l, r
		}
	})
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Fatalf("operator not symmetric: <Ax,y>=%g <x,Ay>=%g", lhs, rhs)
	}
}

func TestCGSolvesPoisson(t *testing.T) {
	m, curve := balancedMesh(t, sfc.Hilbert, 60, 5)
	var rel float64
	var iters int
	var maxU, minU float64
	comm.Run(4, comm.CostModel{}, func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range m.Leaves {
			if i%4 == c.Rank() {
				local = append(local, k)
			}
		}
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: partition.EqualWork, Machine: machine.Wisconsin8(),
		})
		prob := Setup(c, res.Local, res.Splitters)
		b := prob.NewVector()
		for i, k := range res.Local {
			// Unit source scaled by cell volume.
			h := float64(k.Size()) / float64(uint32(1)<<sfc.MaxLevel)
			b[i] = h * h * h
		}
		x, it, r := prob.CG(c, b, 1e-8, 2000)
		lmax, lmin := math.Inf(-1), math.Inf(1)
		for i := 0; i < prob.NumLocal(); i++ {
			lmax = math.Max(lmax, x[i])
			lmin = math.Min(lmin, x[i])
		}
		maxF64 := func(a, b float64) float64 { return max(a, b) }
		gmax := comm.AllreduceScalar(c, lmax, 8, maxF64)
		gmin := -comm.AllreduceScalar(c, -lmin, 8, maxF64)
		if c.Rank() == 0 {
			rel, iters, maxU, minU = r, it, gmax, gmin
		}
	})
	if rel > 1e-7 {
		t.Fatalf("CG did not converge: rel=%g after %d iters", rel, iters)
	}
	if iters < 2 {
		t.Fatalf("suspiciously trivial solve: %d iterations", iters)
	}
	// Discrete maximum principle for -Δu = f ≥ 0 with zero Dirichlet BC.
	if minU < -1e-12 {
		t.Fatalf("solution dips below zero: %g", minU)
	}
	if maxU <= 0 {
		t.Fatalf("solution not positive anywhere: max=%g", maxU)
	}
}

func TestCampaignAccounting(t *testing.T) {
	m, curve := balancedMesh(t, sfc.Hilbert, 100, 6)
	machineModel := machine.Clemson32()
	var result CampaignResult
	stats := comm.Run(4, machineModel.CostModel(), func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range m.Leaves {
			if i%4 == c.Rank() {
				local = append(local, k)
			}
		}
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: partition.EqualWork, Machine: machineModel,
		})
		prob := Setup(c, res.Local, res.Splitters)
		got := RunCampaign(c, prob, 10, 42)
		if c.Rank() == 0 {
			result = got
		}
	})
	if result.ElementsMoved <= 0 {
		t.Fatal("campaign moved no ghost elements")
	}
	if result.ElementsMoved%10 != 0 {
		t.Fatalf("ElementsMoved %d not a multiple of the iteration count", result.ElementsMoved)
	}
	if result.LocalBusy <= 0 {
		t.Fatal("no compute time accumulated")
	}
	if stats.Phase("halo") <= 0 || stats.Phase("compute") <= 0 {
		t.Fatal("phase breakdown missing")
	}
}
