package optipart_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"optipart"
)

// TestModeledCostEquivalence pins the simulator's modeled accounting to the
// values produced by the seed implementation, before the linearized-rank and
// radix-sort rewrite of the hot paths. The scenario deliberately crosses
// every optimized subsystem in one run — TreeSort and splitter refinement
// (Partition), ownership lookup (BuildGhost), sample bucketing (SampleSort)
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
		wantBytes    = 458128
		wantMsgs     = 304
		wantTimeBits = 0x3f71644dd4c1853e
	)

	for _, w := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			prev := optipart.SetWorkers(w)
			defer optipart.SetWorkers(prev)

			curve := optipart.NewCurve(optipart.Hilbert, 3)
			m := optipart.Clemson32()
			stats, err := optipart.RunWithFaults(8, m, &optipart.FaultPlan{}, func(c *optipart.Comm) error {
				rng := rand.New(rand.NewSource(int64(c.Rank()) + 100))
				local := optipart.RandomKeys(rng, 2000, 3, optipart.Normal, 2, 12)
				res := optipart.Partition(c, local, optipart.Options{
					Curve: curve, Mode: optipart.ModelDriven, Machine: m,
				})
				optipart.BuildGhost(c, res.Local, res.Splitters)
				optipart.SampleSort(c, optipart.RandomKeys(rng, 500, 3, optipart.LogNormal, 2, 10), curve)
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
