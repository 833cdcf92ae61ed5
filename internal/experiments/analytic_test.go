package experiments

import (
	"math/rand"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

func TestWeakScalingShapes(t *testing.T) {
	m := machine.Titan()
	ps := []int{16, 256, 4096, 65536, 262144}
	series := make([]breakdown, len(ps))
	for i, p := range ps {
		series[i] = treeSortPartition(m, p, 1_000_000, analyticConfig{})
	}
	for i := 1; i < len(series); i++ {
		if series[i].Total() <= series[i-1].Total() {
			t.Fatalf("weak-scaling total must grow with p: p=%d %g vs p=%d %g",
				series[i].P, series[i].Total(), series[i-1].P, series[i-1].Total())
		}
	}
	// Figure 5's observation: at scale the all-to-all dominates while the
	// partitioning itself stays comparatively cheap.
	last := series[len(series)-1]
	if last.Alltoall < last.Splitter+last.LocalSort {
		t.Fatalf("at 262144 cores the exchange should dominate: %+v", last)
	}
	// The largest run finishes in seconds, not minutes (paper: ~4s).
	if last.Total() > 60 || last.Total() < 0.01 {
		t.Fatalf("implausible 262K-core runtime %g s", last.Total())
	}
}

func TestStrongScalingEfficiency(t *testing.T) {
	m := machine.Titan()
	ps := []int{16, 32, 64, 128, 256, 512, 1024}
	// Efficiency relative to the series' first point, T(p0)·p0 / (T(p)·p),
	// as fig4 tabulates it.
	eff := make([]float64, len(ps))
	var base float64
	for i, p := range ps {
		work := treeSortPartition(m, p, 16_000_000/p, analyticConfig{}).Total() * float64(p)
		if i == 0 {
			base = work
		}
		eff[i] = base / work
	}
	if eff[0] != 1 {
		t.Fatalf("base efficiency %g, want 1", eff[0])
	}
	// The paper's own Figure 4 efficiencies are non-monotonic (98, 91, 51,
	// 85, 65, 43%), so only the envelope is checked: every point stays in a
	// plausible band and the trend over the full 64x scale-up is a clear
	// loss, roughly the paper's ~43%.
	for i, e := range eff {
		if e <= 0 || e > 1.2 {
			t.Fatalf("efficiency[%d] = %g out of (0, 1.2]", i, e)
		}
	}
	lastEff := eff[len(eff)-1]
	if lastEff < 0.1 || lastEff > 0.95 {
		t.Fatalf("64x efficiency %g out of plausible band", lastEff)
	}
}

func TestSampleSortLosesAtScale(t *testing.T) {
	// Figure 6: TreeSort's splitter phase scales better than SampleSort's
	// sample gathering.
	m := machine.Stampede()
	small := 64
	large := 32768
	tsSmall := treeSortPartition(m, small, 1_000_000, analyticConfig{})
	ssSmall := sampleSortPartition(m, small, 1_000_000, analyticConfig{})
	tsLarge := treeSortPartition(m, large, 1_000_000, analyticConfig{})
	ssLarge := sampleSortPartition(m, large, 1_000_000, analyticConfig{})
	if tsLarge.Splitter >= ssLarge.Splitter {
		t.Fatalf("TreeSort splitter %g should beat SampleSort %g at p=%d",
			tsLarge.Splitter, ssLarge.Splitter, large)
	}
	// The advantage must grow with p.
	gainSmall := ssSmall.Splitter / tsSmall.Splitter
	gainLarge := ssLarge.Splitter / tsLarge.Splitter
	if gainLarge <= gainSmall {
		t.Fatalf("splitter advantage should grow with p: %g -> %g", gainSmall, gainLarge)
	}
}

func TestKSplittersReducesSplitterCost(t *testing.T) {
	m := machine.Titan()
	full := treeSortPartition(m, 262144, 1_000_000, analyticConfig{KSplitters: -1})
	staged := treeSortPartition(m, 262144, 1_000_000, analyticConfig{KSplitters: 4096})
	if staged.Splitter >= full.Splitter {
		t.Fatalf("k-staging should cut splitter cost: %g vs %g", staged.Splitter, full.Splitter)
	}
	if staged.Alltoall != full.Alltoall {
		t.Fatal("k-staging must not affect the exchange")
	}
}

// TestAnalyticMatchesMeasured runs the real SPMD partitioner at small p
// under the machine's cost model and checks the analytic model lands within
// a small factor — the calibration that justifies extrapolating to paper
// scale.
func TestAnalyticMatchesMeasured(t *testing.T) {
	m := machine.Titan()
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	for _, p := range []int{8, 32} {
		grain := 4000
		st := comm.Run(p, m.CostModel(), func(c *comm.Comm) {
			rng := rand.New(rand.NewSource(int64(900 + c.Rank())))
			local := octree.RandomKeys(rng, grain, 3, octree.Normal, 2, 14)
			partition.Partition(c, local, partition.Options{
				Curve: curve, Mode: partition.EqualWork, Machine: m,
			})
		})
		measured := st.Time()
		predicted := treeSortPartition(m, p, grain, analyticConfig{}).Total()
		ratio := measured / predicted
		if ratio < 0.2 || ratio > 5 {
			t.Fatalf("p=%d: analytic %g s vs measured %g s (ratio %g) — model out of calibration",
				p, predicted, measured, ratio)
		}
	}
}
