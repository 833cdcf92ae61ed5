// Package divergeok exercises idiomatic rank-conditional code that must stay
// silent: data preparation may diverge as long as the collective sequence
// does not.
package divergeok

import "optipart/internal/comm"

// rootPrep prepares data on the root only; every rank reaches the Allgather.
func rootPrep(c *comm.Comm, vals []float64) []float64 {
	if c.Rank() == 0 {
		for i := range vals {
			vals[i] = float64(i)
		}
	}
	return comm.Allgather(c, vals, 8)
}

// sizeLoop runs a collective a uniform number of times.
func sizeLoop(c *comm.Comm) {
	for i := 0; i < c.Size(); i++ {
		c.Barrier()
	}
}

// converge loops until a collectively agreed residual: the bound derives
// from an Allreduce result, which is identical on every rank.
func converge(c *comm.Comm, local float64) float64 {
	res := comm.AllreduceScalar(c, local, 8, comm.SumF64)
	for res > 1e-9 {
		res = comm.AllreduceScalar(c, res/2, 8, comm.SumF64)
	}
	return res
}

// switchPrep picks per-rank parameters, then calls collectives uniformly.
func switchPrep(c *comm.Comm, vals []float64) []float64 {
	scale := 1.0
	switch c.Rank() {
	case 0:
		scale = 2.0
	default:
		scale = 0.5
	}
	for i := range vals {
		vals[i] *= scale
	}
	return comm.Allreduce(c, vals, 8, comm.SumF64)
}
