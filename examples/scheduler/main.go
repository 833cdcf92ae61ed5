// Scheduler: SFC ordering applied to the paper's second use case (§1–§2,
// refs [3, 32]) — allocating cluster nodes to jobs. On a Titan-like 3D
// torus, jobs placed on contiguous runs of a Hilbert ordering of the nodes
// get geometrically compact allocations with shorter internal communication
// paths than the naive linear node order.
//
//	go run ./examples/scheduler
package main

import (
	"fmt"
	"math/rand"
)

func main() {
	torus := TitanTorus()
	fmt.Printf("torus %dx%dx%d (%d nodes), random job stream, three placement policies\n\n",
		torus.NX, torus.NY, torus.NZ, torus.Nodes())
	fmt.Printf("%-8s  %14s  %14s  %12s\n", "policy", "avg hops/job", "avg box volume", "jobs placed")

	for _, policy := range []Policy{Linear, MortonOrder, HilbertOrder} {
		a := NewAllocator(torus, policy)
		rng := rand.New(rand.NewSource(3))
		var hops, vol float64
		placed := 0
		live := make([][]Coord, 0)
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				size := 8 + rng.Intn(120)
				job := a.Alloc(size)
				if job == nil {
					continue
				}
				hops += torus.AvgPairwiseHops(job)
				vol += float64(BoundingVolume(job))
				placed++
				live = append(live, job)
			} else {
				i := rng.Intn(len(live))
				a.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
		fmt.Printf("%-8s  %14.2f  %14.1f  %12d\n",
			policy, hops/float64(placed), vol/float64(placed), placed)
	}
	fmt.Println("\ncompact Hilbert allocations shorten every job's internal paths — the same")
	fmt.Println("locality argument as mesh partitioning, applied to the machine itself.")
}
