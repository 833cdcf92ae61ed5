package optipart_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/fault"
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
	const (
		wantBytes    = 455056
		wantMsgs     = 280
		wantTimeBits = 0x3f70c4d62abbe2bd
	)

	for _, w := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			prev := par.SetWorkers(w)
			defer par.SetWorkers(prev)

			curve := sfc.NewCurve(sfc.Hilbert, 3)
			m := machine.Clemson32()
			stats, err := fault.Run(8, m.CostModel(), &fault.Plan{}, func(c *comm.Comm) error {
				rng := rand.New(rand.NewSource(int64(c.Rank()) + 100))
				local := octree.RandomKeys(rng, 2000, 3, octree.Normal, 2, 12)
				res := partition.Partition(c, local, partition.Options{
					Curve: curve, Mode: partition.ModelDriven, Machine: m,
				})
				mesh.Build(c, res.Local, res.Splitters)
				psort.SampleSort(c, octree.RandomKeys(rng, 500, 3, octree.LogNormal, 2, 10), curve)
				return nil
			})
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
