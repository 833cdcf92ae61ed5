package experiments

// analytic.go is the analytic scaling executor: it evaluates the cost model
// of §3.1 (Eqs. (1) and (2)) at core counts far beyond what can be run as
// goroutines, so the weak- and strong-scaling figures can reach the paper's
// 262,144 cores. The same formulas price the collectives inside the real
// SPMD runs (internal/comm), so small-p analytic points coincide with
// small-p measured points by construction; TestAnalyticMatchesMeasured
// checks that agreement.

import (
	"math"

	"optipart/internal/machine"
	"optipart/internal/psort"
)

// breakdown is the modeled cost of one distributed TreeSort partition run,
// split the way Figures 5 and 6 split it.
type breakdown struct {
	P         int
	Grain     int // elements per rank
	LocalSort float64
	Splitter  float64
	Alltoall  float64
}

// Total returns the summed runtime.
func (b breakdown) Total() float64 { return b.LocalSort + b.Splitter + b.Alltoall }

// analyticConfig fixes the algorithmic constants of the analytic model.
type analyticConfig struct {
	Dim int
	// KSplitters is the staging bound k ≤ p on splitters per reduction
	// (§3.1: reduces the reduction from O(p·log p) to O(k·log p)). Zero
	// selects the default staging of min(p, 1024); a negative value
	// disables staging (k = p), the ablation baseline.
	KSplitters int
	// ExtraRounds is how many refinement rounds beyond log_{2^dim}(p) the
	// splitter loop runs to reach the tolerance (2 fits the measured runs).
	ExtraRounds int
}

func (cfg analyticConfig) withDefaults() analyticConfig {
	if cfg.Dim == 0 {
		cfg.Dim = 3
	}
	if cfg.ExtraRounds == 0 {
		cfg.ExtraRounds = 2
	}
	return cfg
}

// treeSortPartition models one distributed TreeSort partition of grain
// elements per rank on p ranks of machine m — Eq. (2) instantiated with the
// constants of the implementation:
//
//	Tp = tc·(N/p) + (ts + tw·k)·log p + tw·(N/p)
//
// with the three addends reported as the local sort, splitter, and
// all-to-all phases.
func treeSortPartition(m machine.Machine, p, grain int, cfg analyticConfig) breakdown {
	cfg = cfg.withDefaults()
	lg := math.Ceil(math.Log2(float64(p)))
	if p == 1 {
		lg = 0
	}
	rounds := math.Ceil(lg/float64(cfg.Dim)) + float64(cfg.ExtraRounds)
	k := cfg.KSplitters
	if k == 0 {
		k = 1024
	}
	if k < 0 || k > p {
		k = p
	}

	// Local sort: the MSD radix passes over the local elements, twice
	// (initial sort and the post-exchange merge).
	localSort := 2 * m.Tc * float64(psort.LocalSortCost(grain, cfg.Dim))

	// Splitter selection: per round, one bucketing pass over the local
	// elements plus an Allreduce of up to k bucket counters (9 int64 each).
	perRound := m.Tc*float64(grain*psort.KeyBytes) +
		(m.Ts+m.Tw*float64(k*(1+1<<cfg.Dim)*8))*lg
	splitter := rounds * perRound

	// Staged all-to-all at comm's width 1: p-1 stages; under weak scaling
	// with globally random data every rank sends ~grain/p elements per
	// destination, so each stage moves ~grain/p per rank.
	stages := float64(p - 1)
	moved := float64(grain*psort.KeyBytes) * float64(p-1) / float64(p)
	alltoall := 0.0
	if p > 1 {
		alltoall = stages*m.Ts + m.Tw*moved + m.Tc*float64(grain*psort.KeyBytes)
	}

	return breakdown{P: p, Grain: grain, LocalSort: localSort, Splitter: splitter, Alltoall: alltoall}
}

// sampleSortPartition models the Dendro SampleSort baseline at the same
// scale: a full local sort, an all-gather of p·(p-1) samples with a sort of
// the gathered samples, and the same exchange. Its splitter phase grows
// with p² sample traffic, which is what lets TreeSort's staged splitters
// win at scale in Figure 6.
func sampleSortPartition(m machine.Machine, p, grain int, cfg analyticConfig) breakdown {
	cfg = cfg.withDefaults()
	lg := math.Ceil(math.Log2(float64(p)))
	if p == 1 {
		lg = 0
	}
	localSort := 2 * m.Tc * float64(psort.LocalSortCost(grain, cfg.Dim))

	samples := float64(p * (p - 1) * psort.KeyBytes)
	splitter := m.Ts*lg + m.Tw*samples +
		m.Tc*float64(psort.LocalSortCost(p*(p-1), cfg.Dim))

	stages := float64(p - 1)
	moved := float64(grain*psort.KeyBytes) * float64(p-1) / float64(p)
	alltoall := 0.0
	if p > 1 {
		alltoall = stages*m.Ts + m.Tw*moved + m.Tc*float64(grain*psort.KeyBytes)
	}
	return breakdown{P: p, Grain: grain, LocalSort: localSort, Splitter: splitter, Alltoall: alltoall}
}
