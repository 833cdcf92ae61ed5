// Appaware: the paper's footnote 1 — the same mesh on the same machine
// should be partitioned differently "e.g. for the Poisson equation vs the
// wave equation". Kernels differ in their compute intensity α and ghost
// payload; sweeping the tolerance and asking each kernel's performance
// model (Eq. 3) for its preferred point shows the optimum moving with the
// application: compute-heavy kernels want tight balance, halo-heavy kernels
// want coarse boundaries.
//
//	go run ./examples/appaware
package main

import (
	"fmt"
	"math/rand"

	"optipart/internal/comm"
	"optipart/internal/fem"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

const ranks = 48

var tols = []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5}

func main() {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	mesh := octree.Balance21(octree.AdaptiveMesh(
		rand.New(rand.NewSource(9)), 2000, 3, octree.Normal, 8)).WithCurve(curve)
	kernels := []fem.Kernel{fem.HighOrder(), fem.Wave(), fem.Laplacian(), fem.MultiSpecies()}

	for _, m := range []machine.Machine{machine.Titan(), machine.Clemson32()} {
		fmt.Printf("mesh: %d elements on %d ranks, machine %s\n", mesh.Len(), ranks, m.Name)

		// Brute-force the tolerance sweep once; the partitions are kernel-
		// independent, only the model's pricing differs.
		qualities := make([]partition.Quality, len(tols))
		for i, tol := range tols {
			var q partition.Quality
			comm.Run(ranks, m.CostModel(), func(c *comm.Comm) {
				var local []sfc.Key
				for j, k := range mesh.Leaves {
					if j%ranks == c.Rank() {
						local = append(local, k)
					}
				}
				mode := partition.FlexibleTolerance
				if tol == 0 {
					mode = partition.EqualWork
				}
				res := partition.Partition(c, local, partition.Options{
					Curve: curve, Mode: mode, Tol: tol, Machine: m, SkipExchange: true,
				})
				if c.Rank() == 0 {
					q = res.Quality
				}
			})
			qualities[i] = q
		}

		fmt.Printf("  %-14s %8s %12s %14s %10s\n", "kernel", "alpha", "payload(B)", "preferred tol", "Tp (s)")
		for _, kernel := range kernels {
			bestTol, bestT := 0.0, -1.0
			for i, tol := range tols {
				t := qualities[i].PredictKernel(m, kernel.Alpha, kernel.PayloadBytes)
				if bestT < 0 || t < bestT {
					bestTol, bestT = tol, t
				}
			}
			fmt.Printf("  %-14s %8.0f %12d %14.2f %10.4g\n",
				kernel.Name, kernel.Alpha, kernel.PayloadBytes, bestTol, bestT)
		}
		fmt.Println()
	}
	fmt.Println("the application's fingerprint (α, payload) moves the optimum tolerance;")
	fmt.Println("the partitioner is application-aware, not only machine-aware.")
}
