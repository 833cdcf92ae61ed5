package experiments

import (
	"fmt"
	"math/rand"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
	"optipart/internal/stats"
)

func init() {
	register("fig4",
		"strong scaling of the partitioner, Morton vs Hilbert, Titan model", fig4)
	register("fig5",
		"weak scaling to 262,144 cores, partition vs all2all breakdown, Titan model", fig5)
	register("fig6",
		"OptiPart vs SampleSort (Dendro) weak-scaling breakdown on Stampede and Titan", fig6)
}

// sampleSortRun executes the Dendro baseline for the same input.
func sampleSortRun(c *comm.Comm, curve *sfc.Curve, local []sfc.Key) {
	psort.SampleSort(c, local, curve)
}

// measurePartition runs the real SPMD partitioner once and reports its
// modeled phase breakdown.
func measurePartition(m machine.Machine, p, grain int, kind sfc.Kind, seed int64, sampleSortBaseline bool) breakdown {
	curve := sfc.NewCurve(kind, 3)
	st := comm.Run(p, m.CostModel(), func(c *comm.Comm) {
		rng := rand.New(rand.NewSource(seed + int64(c.Rank())))
		local := octree.RandomKeys(rng, grain, 3, octree.Normal, 2, 18)
		if sampleSortBaseline {
			sampleSortRun(c, curve, local)
			return
		}
		partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: partition.EqualWork, Machine: m,
		})
	})
	return breakdown{
		P: p, Grain: grain,
		LocalSort: st.Phase("local sort"),
		Splitter:  st.Phase("splitter"),
		Alltoall:  st.Phase("all2all"),
	}
}

// fig4 reproduces Figure 4: strong scaling of the partitioner with a fixed
// problem size, for both curves, with parallel efficiencies. Small core
// counts run for real under the Titan cost model; the paper's full range is
// completed analytically (identical formulas, see analytic.go).
func fig4(cfg Config) error {
	paperNote(cfg,
		"16M elements on Titan, 16-1024 cores, efficiency 98%..43%, ~25ms at 1024 cores",
		"1.6M elements measured on 16-128 goroutine ranks + analytic points to 1024 (Titan cost model)")
	n := 1_600_000
	measured := []int{16, 32, 64, 128}
	analytic := []int{16, 64, 256, 1024}
	paperN := 16_000_000
	if cfg.Quick {
		n = 64_000
		measured = []int{8, 16}
		analytic = []int{16, 64}
	}
	table := stats.NewTable("Figure 4: strong scaling (seconds)",
		"cores", "source", "N", "Morton", "Hilbert", "efficiency(Morton)")
	var base float64
	for _, p := range measured {
		mo := measurePartition(machine.Titan(), p, n/p, sfc.Morton, cfg.Seed, false).Total()
		hi := measurePartition(machine.Titan(), p, n/p, sfc.Hilbert, cfg.Seed, false).Total()
		if base == 0 {
			base = mo * float64(p)
		}
		table.Add(p, "measured", n, mo, hi, fmt.Sprintf("%.0f%%", 100*base/(mo*float64(p))))
	}
	// The analytic series runs at the paper's full problem size, where
	// strong scaling has room to 1024 cores; efficiency is relative to the
	// series' own first point, as in the figure.
	var mbase float64
	for _, p := range analytic {
		b := treeSortPartition(machine.Titan(), p, paperN/p, analyticConfig{})
		if mbase == 0 {
			mbase = b.Total() * float64(p)
		}
		table.Add(p, "model", paperN, b.Total(), b.Total(), fmt.Sprintf("%.0f%%", 100*mbase/(b.Total()*float64(p))))
	}
	table.Fprint(cfg.Out)
	return nil
}

// fig5 reproduces Figure 5: weak scaling with fixed grain up to the paper's
// 262,144 cores, split into partition (local sort + splitter) and all2all.
func fig5(cfg Config) error {
	paperNote(cfg,
		"grain 1e6/rank, 16..262144 cores on Titan (max 262B elements, ~4s), all2all dominates at scale",
		"grain 2e4 measured on 16..256 ranks + analytic sweep at the paper's grain to 262144")
	grain := 20_000
	measured := []int{16, 64, 256}
	analytic := []int{16, 256, 4096, 65536, 262144}
	if cfg.Quick {
		grain = 2_000
		measured = []int{8, 32}
		analytic = []int{64, 1024, 262144}
	}
	table := stats.NewTable("Figure 5: weak scaling (seconds)",
		"cores", "source", "grain", "partition", "all2all", "total")
	for _, p := range measured {
		b := measurePartition(machine.Titan(), p, grain, sfc.Hilbert, cfg.Seed, false)
		table.Add(p, "measured", grain, b.LocalSort+b.Splitter, b.Alltoall, b.Total())
	}
	for _, p := range analytic {
		b := treeSortPartition(machine.Titan(), p, 1_000_000, analyticConfig{})
		table.Add(p, "model", 1_000_000, b.LocalSort+b.Splitter, b.Alltoall, b.Total())
	}
	table.Fprint(cfg.Out)
	return nil
}

// fig6 reproduces Figure 6: TreeSort-based partitioning vs the Dendro
// SampleSort baseline, phase by phase, on two machine models.
func fig6(cfg Config) error {
	paperNote(cfg,
		"grain 1e6 (Stampede) and 5e6 (Titan), 16..32768 cores; OptiPart's splitter phase scales better than SampleSort's",
		"grain 1e4 measured on 16..128 ranks + analytic sweep at paper grain")
	grain := 10_000
	measured := []int{16, 64, 128}
	analytic := []int{1024, 8192, 32768}
	if cfg.Quick {
		grain = 2_000
		measured = []int{8, 32}
		analytic = []int{1024, 32768}
	}
	for _, m := range []machine.Machine{machine.Stampede(), machine.Titan()} {
		table := stats.NewTable(fmt.Sprintf("Figure 6 (%s): phase breakdown (seconds)", m.Name),
			"cores", "source", "algorithm", "local sort", "splitter", "all2all", "total")
		for _, p := range measured {
			ts := measurePartition(m, p, grain, sfc.Morton, cfg.Seed, false)
			ss := measurePartition(m, p, grain, sfc.Morton, cfg.Seed, true)
			table.Add(p, "measured", "treesort", ts.LocalSort, ts.Splitter, ts.Alltoall, ts.Total())
			table.Add(p, "measured", "samplesort", ss.LocalSort, ss.Splitter, ss.Alltoall, ss.Total())
		}
		paperGrain := 1_000_000
		if m.Name == "Titan" {
			paperGrain = 5_000_000
		}
		for _, p := range analytic {
			ts := treeSortPartition(m, p, paperGrain, analyticConfig{})
			ss := sampleSortPartition(m, p, paperGrain, analyticConfig{})
			table.Add(p, "model", "treesort", ts.LocalSort, ts.Splitter, ts.Alltoall, ts.Total())
			table.Add(p, "model", "samplesort", ss.LocalSort, ss.Splitter, ss.Alltoall, ss.Total())
		}
		table.Fprint(cfg.Out)
		fmt.Fprintln(cfg.Out)
	}
	return nil
}
