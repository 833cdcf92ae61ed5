// Quickstart: partition a random adaptive octree with OptiPart and inspect
// the resulting partition quality.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

func main() {
	const p = 16 // ranks
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Clemson32()

	var res *partition.Result
	st := comm.Run(p, m.CostModel(), func(c *comm.Comm) {
		// Every rank starts with 20k random octants (normal distribution,
		// the paper's default workload).
		rng := rand.New(rand.NewSource(int64(100 + c.Rank())))
		local := octree.RandomKeys(rng, 20000, 3, octree.Normal, 2, 18)

		// OptiPart: the machine model decides how much load imbalance to
		// trade for smaller partition boundaries.
		r := partition.Partition(c, local, partition.Options{
			Curve:   curve,
			Mode:    partition.ModelDriven,
			Machine: m,
		})
		if c.Rank() == 0 {
			res = r
		}
	})

	fmt.Printf("partitioned %d elements across %d ranks on the %s model\n",
		res.Quality.N, p, m.Name)
	fmt.Printf("  modeled time:        %.4g s\n", st.Time())
	fmt.Printf("  refinement rounds:   %d\n", res.Rounds)
	fmt.Printf("  achieved tolerance:  %.3f\n", res.AchievedTol)
	fmt.Printf("  load imbalance λ:    %.3f (Wmax=%d, Wmin=%d)\n",
		res.Quality.LoadImbalance(), res.Quality.Wmax, res.Quality.Wmin)
	fmt.Printf("  boundary octants:    Cmax=%d, total=%d\n",
		res.Quality.Cmax, res.Quality.Ctot)
	fmt.Printf("  predicted app step:  %.4g s (Tp = α·tc·Wmax + tw·Cmax)\n",
		res.Predicted)
}
