package psort

import (
	"optipart/internal/comm"
	"optipart/internal/sfc"
)

// SampleSort is the Dendro-style baseline: a parallel sort by regular
// sampling (Frazer & McKellar, the paper's ref [11]) over SFC-ordered keys.
// It load-balances to N/p ± p but is oblivious to the machine and to the
// communication costs of whatever computation follows — the partition is
// whatever the sort produces. Phases are labeled "local sort", "splitter",
// and "all2all" to match the breakdown in Figure 6.
//
// It returns this rank's slice of the globally sorted sequence.
func SampleSort(c *comm.Comm, local []sfc.Key, curve *sfc.Curve) []sfc.Key {
	p := c.Size()

	c.SetPhase("local sort")
	ChargeLocalSort(c, curve, local)
	if p == 1 {
		return local
	}

	// Regular sampling: p-1 evenly spaced keys from the sorted local run.
	c.SetPhase("splitter")
	samples := make([]sfc.Key, 0, p-1)
	for i := 1; i < p; i++ {
		idx := i * len(local) / p
		if idx < len(local) {
			samples = append(samples, local[idx])
		}
	}
	all := comm.Allgather(c, samples, KeyBytes)
	TreeSort(curve, all)
	c.Compute(LocalSortCost(len(all), curve.Dim))
	splitters := make([]sfc.Key, 0, p-1)
	for i := 1; i < p; i++ {
		idx := i * len(all) / p
		if idx < len(all) {
			splitters = append(splitters, all[idx])
		}
	}

	// Bucket the sorted local run by splitter and exchange.
	send := bucketBySplitters(curve, local, splitters, p)
	c.Compute(int64(len(local)) * KeyBytes) // one scan to split into buckets

	c.SetPhase("all2all")
	recv := comm.Alltoallv(c, send, KeyBytes, comm.AlltoallvOptions{})

	// Merge the p sorted runs.
	c.SetPhase("local sort")
	var out []sfc.Key
	for _, run := range recv {
		out = append(out, run...)
	}
	ChargeLocalSort(c, curve, out)
	return out
}

// bucketBySplitters cuts the sorted local run into p contiguous buckets at
// the splitter keys; rank r's bucket holds keys in [splitters[r-1],
// splitters[r]). Each boundary is one sfc.LowerBoundKeys search, narrowed
// to the keys after the previous boundary.
func bucketBySplitters(curve *sfc.Curve, local, splitters []sfc.Key, p int) [][]sfc.Key {
	send := make([][]sfc.Key, p)
	lo := 0
	for r := 0; r < p; r++ {
		hi := len(local)
		if r < len(splitters) {
			hi = lo + curve.LowerBoundKeys(local[lo:], curve.Rank(splitters[r]))
		}
		send[r] = local[lo:hi]
		lo = hi
	}
	return send
}
