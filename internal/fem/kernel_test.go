package fem

import (
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// kernelProblem builds a distributed problem over a balanced mesh.
func kernelProblem(t *testing.T, c *comm.Comm, leaves []sfc.Key, curve *sfc.Curve, kernel Kernel) *Problem {
	t.Helper()
	var local []sfc.Key
	for i, k := range leaves {
		if i%c.Size() == c.Rank() {
			local = append(local, k)
		}
	}
	res := partition.Partition(c, local, partition.Options{
		Curve: curve, Mode: partition.EqualWork, Machine: machine.Wisconsin8(),
	})
	return SetupKernel(c, res.Local, res.Splitters, kernel)
}

func TestKernelsChangeCharging(t *testing.T) {
	m, curve := balancedMesh(t, sfc.Hilbert, 40, 5)
	timeFor := func(kernel Kernel) float64 {
		mm := machine.Clemson32()
		st := comm.Run(4, mm.CostModel(), func(c *comm.Comm) {
			prob := kernelProblem(t, c, m.Leaves, curve, kernel)
			x := prob.NewVector()
			y := prob.NewVector()
			for i := 0; i < prob.NumLocal(); i++ {
				x[i] = 1
			}
			for it := 0; it < 5; it++ {
				prob.Matvec(c, x, y)
			}
		})
		return st.Time()
	}
	if timeFor(HighOrder()) <= timeFor(Laplacian()) {
		t.Fatal("the high-order kernel must be more expensive than the Laplacian")
	}
}

func TestKernelPredict(t *testing.T) {
	m := machine.Clemson32()
	predict := func(k Kernel, wmax, cmax int64) float64 {
		return m.PredictKernel(k.Alpha, k.PayloadBytes, wmax, cmax)
	}
	lap, ho := Laplacian(), HighOrder()
	if predict(ho, 1000, 100) <= predict(lap, 1000, 100) {
		t.Fatal("high-order kernel must predict a more expensive step")
	}
	// The compute:communication ratio differs between kernels, which is
	// what makes OptiPart application-aware.
	ratio := func(k Kernel) float64 {
		return predict(k, 1000, 0) / predict(k, 0, 100)
	}
	if ratio(HighOrder()) <= ratio(Laplacian()) {
		t.Fatal("high-order kernel should be relatively more compute-bound")
	}
}
