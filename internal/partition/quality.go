package partition

import (
	"math"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/par"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// Quality summarizes a candidate partition: the per-partition work and
// boundary-octant extrema from which the performance model predicts the
// runtime of subsequent computation (Algorithm 2, extended with the minima
// needed for the imbalance plots of Figure 11).
type Quality struct {
	N    int64 // global element count
	Wmax int64 // maximum elements assigned to one partition
	Wmin int64 // minimum elements assigned to one partition
	Cmax int64 // maximum boundary octants of one partition
	Cmin int64 // minimum boundary octants of one partition
	Ctot int64 // total boundary octants across partitions (∝ total data moved)
}

// LoadImbalance returns λ = Wmax/Wmin (§3.2). It is +Inf when a partition
// is empty.
func (q Quality) LoadImbalance() float64 {
	if q.Wmin == 0 {
		return math.Inf(1)
	}
	return float64(q.Wmax) / float64(q.Wmin)
}

// CommImbalance returns the boundary imbalance Cmax/Cmin (Figure 11).
func (q Quality) CommImbalance() float64 {
	if q.Cmin == 0 {
		return math.Inf(1)
	}
	return float64(q.Cmax) / float64(q.Cmin)
}

// Predict evaluates Eq. (3) for this quality on the given machine:
// Tp = α·tc·Wmax + tw·Cmax.
func (q Quality) Predict(m machine.Machine, alpha float64) float64 {
	return m.Predict(alpha, q.Wmax, q.Cmax)
}

// PredictKernel is Predict with an explicit ghost payload size (the
// application fingerprint of fem.Kernel).
func (q Quality) PredictKernel(m machine.Machine, alpha float64, payloadBytes int) float64 {
	return m.PredictKernel(alpha, payloadBytes, q.Wmax, q.Cmax)
}

// emptiesRank reports whether some partition owns nothing although the p
// partitions have at least one element each to share.
func (q Quality) emptiesRank(p int) bool { return q.Wmin == 0 && q.N >= int64(p) }

// objective prices candidate placements for one partitioning call: Eq. (3)
// for a single application step, and the migration-aware
// J = horizon·Tp + tw·movedBytes that Repartition and the Repartitioner
// minimize. It is the one place the zero-means-default knobs are filled.
type objective struct {
	m       machine.Machine
	alpha   float64
	payload int     // wire bytes per ghost (and per migrated) element
	tol     float64 // imbalance a warm start tolerates, in grains
	horizon float64
}

// newObjective fills the defaults. Only the warm-start callers read tol:
// Partition's FlexibleTolerance takes Options.Tol as given, where zero
// means equal work.
func newObjective(m machine.Machine, alpha float64, payload int, tol, horizon float64) objective {
	if alpha == 0 {
		alpha = machine.DefaultAlpha
	}
	if payload == 0 {
		payload = machine.GhostPayloadBytes
	}
	if tol <= 0 {
		tol = 0.1
	}
	if horizon <= 0 {
		horizon = machine.DefaultHorizon
	}
	return objective{m: m, alpha: alpha, payload: payload, tol: tol, horizon: horizon}
}

// tp is Eq. (3) for one application step on a placement of quality q.
//
//alloc:zero
func (o *objective) tp(q Quality) float64 { return q.PredictKernel(o.m, o.alpha, o.payload) }

// j is the migration-aware objective of adopting a placement of quality q
// that moves the given number of elements.
//
//alloc:zero
func (o *objective) j(q Quality, movedElements int64) float64 {
	return o.m.PredictRepartition(o.alpha, o.payload, q.Wmax, q.Cmax, movedElements*int64(o.payload), o.horizon)
}

// EvaluateQuality is Algorithm 2: every rank scans its local elements under
// the candidate splitters, classifying each as interior or boundary (an
// element is a boundary octant when a same-size face neighbor falls in a
// different partition), and a reduction produces the global per-partition
// work and boundary counts. One linear pass over the local elements plus a
// single O(p) reduction, as the paper requires. local may be in any order.
//
// The paper's pseudocode reduces per-rank counts with MPI_MAX; since before
// the exchange a rank's local elements are only a sample of each candidate
// partition, we sum per-partition counts across ranks instead, which
// measures the same quantity exactly rather than approximately.
func EvaluateQuality(c *comm.Comm, curve *sfc.Curve, local []sfc.Key, sp *Splitters) Quality {
	a := psort.GetArena()
	defer psort.PutArena(a)
	ranks := a.Ranks(len(local))
	lo, hi := a.Spans(len(local))
	fillColumns(curve, local, ranks, lo, hi, true)
	counts := make([]int64, 2*sp.P())
	scanCounts(curve, local, ranks, lo, hi, sp.ranks(), counts)
	return reduceQuality(c, curve, len(local), counts)
}

// reduceQuality charges the local pass of Algorithm 2 over n elements and
// reduces the per-partition [work | boundary] counts to the global Quality.
// The modeled cost is the pass the paper's implementation pays: each
// element touched 1+2·dim times. Cached columns and range counts make only
// the simulator faster.
func reduceQuality(c *comm.Comm, curve *sfc.Curve, n int, counts []int64) Quality {
	c.Compute(int64(n) * int64(1+2*curve.Dim) * psort.KeyBytes)
	return foldQuality(comm.Allreduce(c, counts, 8, comm.SumI64))
}

// fillColumns fills the cached scan columns of keys for the collective
// selector and EvaluateQuality: ranks[i] = curve.Rank(keys[i]) when rank
// is set, which only EvaluateQuality does (the selector's callers hold the
// rank column already), and lo[i], hi[i] = the box
// curve.SpanBox derives from that rank with a few mask operations. A box
// contains the exact neighbour span, so it settles every element whose box
// sits inside its owner's bracket; scanCounts refines the rest in place.
// Large inputs chunk across the pool; every slot has one writer, so the
// columns are identical at every pool width.
func fillColumns(curve *sfc.Curve, keys []sfc.Key, ranks, lo, hi []sfc.Rank128, rank bool) {
	fillChunks(len(keys), func(from, to int) {
		for i := from; i < to; i++ {
			if rank {
				ranks[i] = curve.Rank(keys[i])
			}
			lo[i], hi[i] = curve.SpanBox(keys[i], ranks[i])
		}
	})
}

// fillSpans fills the serial Repartitioner's span columns with one
// sfc.RankWithSpan call per key: the exact span lo[i], hi[i]. The engine
// keeps exact spans because its count memo and range counts compare every
// span it touches, over thousands of steps that reuse them.
func fillSpans(curve *sfc.Curve, keys []sfc.Key, lo, hi []sfc.Rank128) {
	fillChunks(len(keys), func(from, to int) {
		for i := from; i < to; i++ {
			_, lo[i], hi[i] = curve.RankWithSpan(keys[i])
		}
	})
}

// fillChunks runs fill over [0, n), chunked across the pool when n is
// large enough to pay for it.
func fillChunks(n int, fill func(from, to int)) {
	if par.Workers() > 1 && n >= parCutoff {
		par.For(n, parGrain, fill)
	} else {
		fill(0, n)
	}
}

// scanCounts is the local pass of Algorithm 2 for input in any order, run
// by EvaluateQuality (curve-ordered columns count by range instead:
// selector.rangeCounts and the Repartitioner's scanQuality, both through
// countRange): it fills counts, laid out as [work per partition | boundary
// octants per partition], for elements under the p-1 separator ranks
// sepRanks. keys, ranks, lo and hi are the elements and their cached
// columns: ranks[i] = curve.Rank(keys[i]), and lo[i], hi[i] either the
// exact neighbour span (curve.RankWithSpan) or a box around it
// (curve.SpanBox).
//
// The element's own owner is a hint carried from the previous element, with
// the owner's separator bracket [lower, upper), and searched again only when
// the rank leaves the bracket, so the walk is O(1) per element over elements
// in curve order and still exact over unsorted ones. The boundary test is two
// compares against the bracket. Owners are monotone in rank, so an element
// is a boundary octant exactly when its span has lo < lower or hi >= upper:
// some neighbour then ranks outside the bracket, and if none does, every
// neighbour shares the element's owner. A box inside the bracket settles
// the element as interior; a box that straddles it is refined, the first
// time, to the exact span with one RankWithSpan call and stored in place,
// so every later scan compares the exact span. The root's sentinels
// (MaxRank128, zero) never fire, since no rank is below zero and upper >
// Rank(root) >= 0.
//
//alloc:zero
func scanCounts(curve *sfc.Curve, keys []sfc.Key, ranks, lo, hi, sepRanks []sfc.Rank128, counts []int64) {
	p := len(sepRanks) + 1
	clear(counts)
	owner := 0
	lower, upper := bracket(sepRanks, owner)
	for i, kr := range ranks {
		if kr.Less(lower) || !kr.Less(upper) {
			owner = sfc.UpperBound(sepRanks, kr)
			lower, upper = bracket(sepRanks, owner)
		}
		counts[owner]++
		if !lo[i].Less(lower) && hi[i].Less(upper) {
			continue
		}
		if sfc.IsSpanBox(lo[i]) {
			_, lo[i], hi[i] = curve.RankWithSpan(keys[i])
			if !lo[i].Less(lower) && hi[i].Less(upper) {
				continue
			}
		}
		counts[p+owner]++
	}
}

// countRange counts the boundary octants among one partition's elements,
// keys with their span columns lo, hi, under the partition's bracket
// [lower, upper): scanCounts' boundary test, box refinement included,
// without its owner search. The count stops once it reaches limit.
//
//alloc:zero
func countRange(curve *sfc.Curve, keys []sfc.Key, lo, hi []sfc.Rank128, lower, upper sfc.Rank128, limit int64) int64 {
	lo, hi = lo[:len(keys)], hi[:len(keys)]
	var b int64
	for i := range keys {
		if !lo[i].Less(lower) && hi[i].Less(upper) {
			continue
		}
		if sfc.IsSpanBox(lo[i]) {
			_, lo[i], hi[i] = curve.RankWithSpan(keys[i])
			if !lo[i].Less(lower) && hi[i].Less(upper) {
				continue
			}
		}
		if b++; b >= limit {
			break
		}
	}
	return b
}

// bracket returns the rank range [lower, upper) that partition o owns under
// the separator ranks seps: zero below the first partition, MaxRank128 past
// the last. No key ranks below zero or at MaxRank128, so the open ends need
// no special case.
//
//alloc:zero
func bracket(seps []sfc.Rank128, o int) (lower, upper sfc.Rank128) {
	if o > 0 {
		lower = seps[o-1]
	}
	upper = sfc.MaxRank128
	if o < len(seps) {
		upper = seps[o]
	}
	return lower, upper
}

// foldQuality reduces per-partition [work | boundary] counts to a Quality.
//
//alloc:zero
func foldQuality(counts []int64) Quality {
	p := len(counts) / 2
	q := Quality{Wmin: math.MaxInt64, Cmin: math.MaxInt64}
	for r := 0; r < p; r++ {
		w, b := counts[r], counts[p+r]
		q.N += w
		q.Ctot += b
		if w > q.Wmax {
			q.Wmax = w
		}
		if w < q.Wmin {
			q.Wmin = w
		}
		if b > q.Cmax {
			q.Cmax = b
		}
		if b < q.Cmin {
			q.Cmin = b
		}
	}
	return q
}
