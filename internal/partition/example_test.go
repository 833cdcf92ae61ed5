package partition_test

import (
	"fmt"
	"math/rand"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// ExamplePartition partitions a deterministic workload with OptiPart and
// prints the quality metrics the performance model traded on.
func ExamplePartition() {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Clemson32()
	p := 4
	var res *partition.Result
	comm.Run(p, m.CostModel(), func(c *comm.Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		keys := octree.RandomKeys(rng, 5000, 3, octree.Normal, 2, 12)
		r := partition.Partition(c, keys, partition.Options{
			Curve:   curve,
			Mode:    partition.ModelDriven,
			Machine: m,
		})
		if c.Rank() == 0 {
			res = r
		}
	})
	fmt.Println("elements:", res.Quality.N)
	fmt.Println("every rank non-empty:", res.Quality.Wmin > 0)
	fmt.Println("boundary below elements:", res.Quality.Ctot < res.Quality.N)
	// Output:
	// elements: 20000
	// every rank non-empty: true
	// boundary below elements: true
}
