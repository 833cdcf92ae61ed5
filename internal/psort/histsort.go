package psort

import (
	"slices"

	"optipart/internal/comm"
	"optipart/internal/par"
	"optipart/internal/sfc"
)

// HistogramSortOptions tunes the histogram sort baseline.
type HistogramSortOptions struct {
	Curve *sfc.Curve
	// Tolerance is the accepted splitter deviation as a fraction of N/p
	// (HistogramSort's ε; 0.01 by default).
	Tolerance float64
	// SamplesPerRank is how many fresh candidates each rank contributes
	// per refinement round (default 8).
	SamplesPerRank int
	// MaxRounds bounds the histogramming loop (default 10).
	MaxRounds int
	// StageWidth configures the exchange.
	StageWidth int
}

// HistogramSort is the comparison-based splitter-selection baseline of
// Solomonik & Kale (the paper's ref [33], also the core of HykSort [34]):
// candidate splitter keys are repeatedly histogrammed — one reduction
// computes every candidate's global rank — and re-sampled around the
// targets until each target has a candidate within ε·N/p. Unlike TreeSort's
// bucket refinement it needs comparisons and data-dependent candidates, but
// like SampleSort it can only balance work, not communication.
//
// It returns this rank's slice of the globally sorted sequence. Collective.
func HistogramSort(c *comm.Comm, local []sfc.Key, opts HistogramSortOptions) []sfc.Key {
	curve := opts.Curve
	p := c.Size()
	if opts.Tolerance <= 0 {
		opts.Tolerance = 0.01
	}
	if opts.SamplesPerRank <= 0 {
		opts.SamplesPerRank = 8
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 10
	}

	c.SetPhase("local sort")
	ChargeLocalSort(c, curve, local)
	if p == 1 {
		return local
	}

	c.SetPhase("splitter")
	n := comm.AllreduceScalar(c, int64(len(local)), 8, comm.SumI64)
	grain := float64(n) / float64(p)
	slack := int64(opts.Tolerance * grain)

	// The sorted local run linearized once; every histogram probe below is a
	// binary search over these integer ranks.
	localRanks := rankKeys(curve, local)

	// Global rank of a key: how many elements precede it. The histogram
	// probes are independent binary searches, so they chunk across the pool;
	// the modeled Compute charge and the Allreduce stay on the rank's
	// goroutine and are identical at every worker count.
	rankOf := func(cands []sfc.Key) []int64 {
		counts := make([]int64, len(cands))
		if par.Workers() > 1 && len(cands) >= 64 {
			par.For(len(cands), 16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[i] = int64(sfc.LowerBound(localRanks, curve.Rank(cands[i])))
				}
			})
		} else {
			for i, cand := range cands {
				counts[i] = int64(sfc.LowerBound(localRanks, curve.Rank(cand)))
			}
		}
		c.Compute(int64(len(cands)) * KeyBytes) // histogram pass
		return comm.Allreduce(c, counts, 8, comm.SumI64)
	}

	// Candidate pool, kept sorted and deduplicated with known ranks.
	var pool []histCand
	addCandidates := func(fresh []sfc.Key) {
		all := comm.Allgather(c, fresh, KeyBytes)
		TreeSort(curve, all)
		uniq := all[:0]
		for i, k := range all {
			if i == 0 || k != all[i-1] {
				uniq = append(uniq, k)
			}
		}
		ranks := rankOf(uniq)
		for i, k := range uniq {
			pool = append(pool, histCand{key: k, rank: ranks[i]})
		}
		slices.SortFunc(pool, func(a, b histCand) int {
			switch {
			case a.rank < b.rank:
				return -1
			case a.rank > b.rank:
				return 1
			}
			return 0
		})
	}

	targets := make([]int64, p-1)
	for r := 1; r < p; r++ {
		targets[r-1] = int64(r) * n / int64(p)
	}

	// Seed the pool with regular local samples.
	seed := make([]sfc.Key, 0, opts.SamplesPerRank)
	for i := 1; i <= opts.SamplesPerRank; i++ {
		if idx := i * len(local) / (opts.SamplesPerRank + 1); idx < len(local) {
			seed = append(seed, local[idx])
		}
	}
	addCandidates(seed)

	bestFor := func(g int64) (histCand, int64) {
		best := histCand{rank: -1 << 62}
		bestDev := int64(1) << 62
		for _, cd := range pool {
			dev := cd.rank - g
			if dev < 0 {
				dev = -dev
			}
			if dev < bestDev {
				best, bestDev = cd, dev
			}
		}
		return best, bestDev
	}

	for round := 0; round < opts.MaxRounds; round++ {
		// Gather fresh samples near each unsatisfied target from the local
		// interval bounded by the closest known candidates.
		var fresh []sfc.Key
		done := true
		for _, g := range targets {
			_, dev := bestFor(g)
			if dev <= slack {
				continue
			}
			done = false
			lo, hi := boundingInterval(curve, localRanks, pool, g)
			for i := 1; i <= opts.SamplesPerRank; i++ {
				if idx := lo + i*(hi-lo)/(opts.SamplesPerRank+1); idx > lo && idx < hi && idx < len(local) {
					fresh = append(fresh, local[idx])
				}
			}
		}
		// All ranks agree on done (pool and targets are replicated).
		if done {
			break
		}
		addCandidates(fresh)
	}

	splitters := make([]sfc.Key, p-1)
	for r, g := range targets {
		best, _ := bestFor(g)
		splitters[r] = best.key
	}

	// Bucket and exchange exactly like SampleSort.
	send := bucketBySplitters(curve, local, splitters, p)
	c.Compute(int64(len(local)) * KeyBytes)

	c.SetPhase("all2all")
	recv := comm.Alltoallv(c, send, KeyBytes, comm.AlltoallvOptions{StageWidth: opts.StageWidth})

	c.SetPhase("local sort")
	var out []sfc.Key
	for _, run := range recv {
		out = append(out, run...)
	}
	ChargeLocalSort(c, curve, out)
	return out
}

// histCand is one histogram-sort splitter candidate with its global rank.
type histCand struct {
	key  sfc.Key
	rank int64
}

// boundingInterval returns the local index range bracketing target rank g
// between the nearest known candidates below and above it.
func boundingInterval(curve *sfc.Curve, localRanks []sfc.Rank128, pool []histCand, g int64) (int, int) {
	lo, hi := 0, len(localRanks)
	for _, cd := range pool {
		idx := sfc.LowerBound(localRanks, curve.Rank(cd.key))
		if cd.rank <= g && idx > lo {
			lo = idx
		}
		if cd.rank >= g && idx < hi {
			hi = idx
		}
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}
