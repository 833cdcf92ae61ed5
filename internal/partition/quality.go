package partition

import (
	"math"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
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
	return evaluateQuality(c, curve, local, nil, sp)
}

// evaluateQuality is EvaluateQuality for callers that already hold the
// curve ranks of local (ranks[i] = curve.Rank(local[i])); nil ranks them
// here.
func evaluateQuality(c *comm.Comm, curve *sfc.Curve, local []sfc.Key, ranks []sfc.Rank128, sp *Splitters) Quality {
	counts := make([]int64, 2*sp.P())
	scanCounts(curve, local, ranks, sp.ranks(), counts)
	// One pass over the elements: each touched 1+2·dim times.
	c.Compute(int64(len(local)) * int64(1+2*curve.Dim) * psort.KeyBytes)
	return foldQuality(comm.Allreduce(c, counts, 8, comm.SumI64))
}

// scanCounts is the local pass of Algorithm 2, shared by the collective
// evaluator and the serial Repartitioner: it fills counts, laid out as
// [work per partition | boundary octants per partition], for keys under the
// p-1 separator ranks sepRanks. ranks, when non-nil, holds each key's curve
// rank; nil ranks every key here.
//
// The element's own owner is a hint carried from the previous element and
// searched again only when the rank leaves the hinted range, so the walk is
// O(1) per element over keys in curve order and still exact over unsorted
// ones. Neighbor ownership is a binary search over sepRanks; the first
// same-size face neighbor in another partition makes the element a boundary
// octant.
//
//alloc:zero
func scanCounts(curve *sfc.Curve, keys []sfc.Key, ranks, sepRanks []sfc.Rank128, counts []int64) {
	p, dim := len(sepRanks)+1, curve.Dim
	for i := range counts {
		counts[i] = 0
	}
	owner := 0
	for i, k := range keys {
		var kr sfc.Rank128
		if ranks != nil {
			kr = ranks[i]
		} else {
			kr = curve.Rank(k)
		}
		if (owner > 0 && kr.Less(sepRanks[owner-1])) || (owner+1 < p && !kr.Less(sepRanks[owner])) {
			owner = sfc.UpperBound(sepRanks, kr)
		}
		counts[owner]++
	faces:
		for axis := 0; axis < dim; axis++ {
			for side := 0; side < 2; side++ {
				nk, ok := octree.FaceNeighbor(k, octree.Face{Axis: axis, Plus: side == 1})
				if ok && sfc.UpperBound(sepRanks, curve.Rank(nk)) != owner {
					counts[p+owner]++
					break faces
				}
			}
		}
	}
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
