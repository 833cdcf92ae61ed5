// Package divergebad holds intentionally hazardous SPMD control flow: every
// marked line must be reported by the collectivediverge analyzer.
package divergebad

import "optipart/internal/comm"

// branchGuarded calls a collective only on rank 0.
func branchGuarded(c *comm.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want "under a rank-dependent condition"
	}
}

// propagated launders the rank id through two assignments before branching.
func propagated(c *comm.Comm, vals []float64) {
	r := c.Rank()
	left := r - 1
	if left >= 0 {
		comm.Allreduce(c, vals, 8, comm.SumF64) // want "under a rank-dependent condition"
	}
}

// earlyExit returns before the collective on high ranks.
func earlyExit(c *comm.Comm, vals []float64) []float64 {
	if c.Rank() > 2 {
		return nil
	}
	return comm.Allgather(c, vals, 8) // want "after a rank-dependent early exit"
}

// unevenLoop breaks out of the loop at a rank-dependent iteration.
func unevenLoop(c *comm.Comm) {
	for i := 0; i < 8; i++ {
		c.Barrier() // want "in a loop with a rank-dependent exit"
		if i == c.Rank() {
			break
		}
	}
}
