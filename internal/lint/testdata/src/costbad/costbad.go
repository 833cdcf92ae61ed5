// Package costbad moves bytes the machine model never sees: every marked
// line must be reported by the costaccounting analyzer.
package costbad

import "optipart/internal/comm"

// leakChannel shuttles a value through a raw channel.
func leakChannel(xs []float64) float64 {
	ch := make(chan float64, 1) // want "make\(chan\) outside internal/comm"
	ch <- xs[0]                 // want "channel send outside internal/comm"
	return <-ch                 // want "channel receive outside internal/comm"
}

// pokeNeighbor stores into the next rank's slot.
func pokeNeighbor(c *comm.Comm, buf []float64) {
	buf[(c.Rank()+1)%c.Size()] = 1 // want "store into another rank's slot"
}

// copyToPeer block-copies into a peer's region.
func copyToPeer(c *comm.Comm, dst, src []float64) {
	copy(dst[c.Rank()+1:], src) // want "copy into another rank's slot"
}

// dotBus is the inner-product shape the rule was kept for: each rank's
// partial sum reaches every rank through channels, so the Allreduce it
// replaced is never charged and no transcript pins the difference.
var dotBus []chan float64

func dot(c *comm.Comm, s float64) float64 {
	if c.Rank() == 0 {
		dotBus = make([]chan float64, c.Size())
		for i := range dotBus {
			dotBus[i] = make(chan float64, c.Size()) // want "make\(chan\) outside internal/comm"
		}
	}
	c.Barrier()
	for _, ch := range dotBus {
		ch <- s // want "channel send outside internal/comm"
	}
	var total float64
	for range dotBus {
		total = comm.SumF64(total, <-dotBus[c.Rank()]) // want "channel receive outside internal/comm"
	}
	c.Barrier()
	return total
}
