// Poisson: solve -Δu = 1 with zero Dirichlet boundary conditions on an
// adaptively refined unit cube (the paper's test application, §5.3), once
// with the standard equal-work SFC partition (the Dendro baseline) and once
// with OptiPart, and compare modeled time-to-solution and energy-to-solution.
//
//	go run ./examples/poisson
package main

import (
	"fmt"
	"math/rand"

	"optipart/internal/comm"
	"optipart/internal/fem"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/power"
	"optipart/internal/sfc"
)

const (
	ranks = 64
	seeds = 1500
	depth = 8
)

func main() {
	m := machine.Clemson32()
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	mesh := octree.Balance21(octree.AdaptiveMesh(
		rand.New(rand.NewSource(7)), seeds, 3, octree.Normal, depth)).WithCurve(curve)
	fmt.Printf("mesh: %d elements, 2:1 balanced, Hilbert-ordered\n", mesh.Len())
	fmt.Printf("machine: %s\n\n", m)

	baseline := solve(m, curve, mesh, partition.EqualWork)
	opti := solve(m, curve, mesh, partition.ModelDriven)

	fmt.Printf("%-22s %14s %14s\n", "", "equal-work", "OptiPart")
	fmt.Printf("%-22s %14d %14d\n", "CG iterations", baseline.iters, opti.iters)
	fmt.Printf("%-22s %14.4g %14.4g\n", "residual", baseline.residual, opti.residual)
	fmt.Printf("%-22s %14.4g %14.4g\n", "modeled time (s)", baseline.time, opti.time)
	fmt.Printf("%-22s %14.4g %14.4g\n", "energy (J)", baseline.energy, opti.energy)
	fmt.Printf("%-22s %14d %14d\n", "Cmax", baseline.cmax, opti.cmax)
	fmt.Printf("\nOptiPart vs equal-work: time %+.1f%%, energy %+.1f%%\n",
		100*(opti.time-baseline.time)/baseline.time,
		100*(opti.energy-baseline.energy)/baseline.energy)
}

type outcome struct {
	iters    int
	residual float64
	time     float64
	energy   float64
	cmax     int64
}

func solve(m machine.Machine, curve *sfc.Curve, mesh *octree.Tree, mode partition.Mode) outcome {
	var out outcome
	st := comm.Run(ranks, m.CostModel(), func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range mesh.Leaves {
			if i%ranks == c.Rank() {
				local = append(local, k)
			}
		}
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: mode, Machine: m,
		})
		prob := fem.Setup(c, res.Local, res.Splitters)

		// Right-hand side: unit source scaled by cell volume.
		b := prob.NewVector()
		for i, k := range res.Local {
			h := float64(k.Size()) / float64(uint32(1)<<sfc.MaxLevel)
			b[i] = h * h * h
		}
		_, iters, rel := prob.CG(c, b, 1e-8, 500)
		if c.Rank() == 0 {
			out.iters = iters
			out.residual = rel
			out.cmax = res.Quality.Cmax
		}
	})
	out.time = st.Time()
	busy := make([]float64, ranks)
	for r := 0; r < ranks; r++ {
		busy[r] = st.PhaseTimes[r]["compute"]
	}
	out.energy = power.Measure(power.JobFromRankTimes(m, busy, st.Time()), rand.New(rand.NewSource(11))).TotalEnergy()
	return out
}
