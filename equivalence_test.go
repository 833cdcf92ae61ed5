package optipart_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/fault"
	"optipart/internal/fem"
	"optipart/internal/machine"
	"optipart/internal/mesh"
	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// TestModeledCostEquivalence pins the simulator's modeled accounting to the
// values produced by the seed implementation, before the linearized-rank and
// radix-sort rewrite of the hot paths. The scenario deliberately crosses
// every optimized subsystem in one run — TreeSort and splitter refinement
// (Partition), ownership lookup (mesh.Build), sample bucketing (SampleSort)
// — through the checked runtime with an empty fault plan.
//
// The constants below were captured with this exact scenario before the
// simulated lossy network was retired; they are the figures the scenario
// once pinned under loss, minus the retransmissions. They must never drift
// from a performance change: ranks, pooled buffers, and the worker pool
// reorganize how the simulator computes, not what the modeled machine is
// charged. The virtual time is compared by
// exact bit pattern, not with a tolerance, and the whole scenario runs at
// every worker count of the ISSUE's matrix — parallelism must change host
// wall-clock only.
func TestModeledCostEquivalence(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Clemson32()
	checkModeledCost(t, 8, 455056, 280, 0x3f70c4d62abbe2bd, func(c *comm.Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 100))
		local := octree.RandomKeys(rng, 2000, 3, octree.Normal, 2, 12)
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: partition.ModelDriven, Machine: m,
		})
		mesh.Build(c, res.Local, res.Splitters)
		psort.SampleSort(c, octree.RandomKeys(rng, 500, 3, octree.LogNormal, 2, 10), curve)
		return nil
	})
}

// TestModeledCostEquivalenceCG pins what a conjugate gradient solve is
// charged: the ghost exchange of every matvec and the Allreduce of every
// fem.Dot. A dot product that folded its partial sums by any route but a
// comm collective would move bytes the model never charges; these figures
// are where that shows. The solve must also converge, on every rank alike.
func TestModeledCostEquivalenceCG(t *testing.T) {
	const p = 4
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Clemson32()
	tree := octree.Balance21(octree.AdaptiveMesh(rand.New(rand.NewSource(81)), 60, 3, octree.Normal, 5))
	leaves := tree.WithCurve(curve).Leaves
	checkModeledCost(t, p, 20598816, 2996, 0x3fd21812d93c14e7, func(c *comm.Comm) error {
		var local []sfc.Key
		for i := c.Rank(); i < len(leaves); i += p {
			local = append(local, leaves[i])
		}
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: partition.ModelDriven, Machine: m,
		})
		prob := fem.Setup(c, res.Local, res.Splitters)
		b := prob.NewVector()
		for i := range res.Local {
			b[i] = 1
		}
		_, iters, rel := prob.CG(c, b, 1e-8, 500)
		if rel > 1e-8 || iters < 2 {
			return fmt.Errorf("CG: relative residual %g after %d iterations", rel, iters)
		}
		return nil
	})
}

// checkModeledCost runs body on p ranks through the checked runtime with an
// empty fault plan, at every worker count of the pool's test matrix, and
// requires the modeled bytes, messages and virtual time (by exact bit
// pattern) the scenario was pinned at.
func checkModeledCost(t *testing.T, p int, wantBytes, wantMsgs int64, wantTimeBits uint64, body func(c *comm.Comm) error) {
	t.Helper()
	for _, w := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			prev := par.SetWorkers(w)
			defer par.SetWorkers(prev)
			stats, err := fault.Run(p, machine.Clemson32().CostModel(), &fault.Plan{}, body)
			if err != nil {
				t.Fatal(err)
			}
			if got := stats.TotalBytes(); got != wantBytes {
				t.Errorf("TotalBytes = %d, want %d", got, wantBytes)
			}
			if got := stats.TotalMsgs(); got != wantMsgs {
				t.Errorf("TotalMsgs = %d, want %d", got, wantMsgs)
			}
			if got := math.Float64bits(stats.Time()); got != wantTimeBits {
				t.Errorf("Time bits = %#x (%.17g), want %#x", got, stats.Time(), wantTimeBits)
			}
		})
	}
}
