package partition

import (
	"errors"
	"fmt"
	"math"

	"optipart/internal/comm"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// RepartOptions configures an incremental repartitioning call.
type RepartOptions struct {
	Options

	// Prior is the placement the data currently lives under. It is
	// required: nil panics, like a prior of the wrong size. A caller holding
	// only a distribution derives it with SplittersFromDistribution.
	Prior *Splitters

	// Horizon is the migration knob of machine.PredictRepartition (0 means
	// machine.DefaultHorizon): how many application steps the new placement
	// must survive before migration pays for itself.
	Horizon float64
}

// RepartResult extends Result with the migration accounting of the adopted
// placement.
type RepartResult struct {
	Result

	// MovedElements/MovedBytes count elements whose owner changed from the
	// prior placement to the adopted one (bytes = elements × PayloadBytes).
	MovedElements int64
	MovedBytes    int64
	MigrationCost float64 // machine.MigrationCost(MovedBytes)
	Objective     float64 // horizon·Tp + MigrationCost of the adopted placement
	KeptSeps      int     // separators inherited verbatim from the prior placement
}

// Repartition is the incremental, migration-aware counterpart of Partition
// for online AMR loops: it seeds selection from the prior placement and
// prices every candidate — the kept prior, low-movement merges that re-aim
// only the separators whose imbalance exceeds the tolerance, and the rungs
// of a full from-scratch descent — with the migration-aware objective
// J = horizon·Tp + tw·movedBytes, adopting a rebalance only when the model
// says the moved bytes pay for themselves within the horizon. On an
// unchanged mesh the descent reproduces the prior placement, so the call
// keeps it and moves nothing.
//
// local must be each rank's current elements; opts.Prior describes where
// they live, which is what the moved-bytes term charges against.
// Collective.
func Repartition(c *comm.Comm, local []sfc.Key, opts RepartOptions) *RepartResult {
	obj := newObjective(opts.Machine, opts.Alpha, opts.PayloadBytes, opts.Tol, opts.Horizon)
	curve := opts.Curve
	p := c.Size()
	prior := opts.Prior
	if prior == nil {
		panic(errors.New("partition: Repartition needs a prior placement"))
	}
	if prior.P() != p {
		panic(fmt.Errorf("partition: prior placement has %d partitions, world has %d", prior.P(), p))
	}

	// One pooled arena holds both selectors' columns for the whole call.
	a := psort.GetArena()
	defer psort.PutArena(a)
	c.SetPhase("local sort")
	ranks, presorted := psort.TreeSortArena(curve, local, a)
	if presorted {
		// The online loop hands over per-rank data that is already in curve
		// order (refinement replaces a leaf by its children in place), so
		// the warm path pays a linear verification scan, not a sort.
		c.Compute(int64(len(local)) * psort.KeyBytes)
	} else {
		c.Compute(psort.LocalSortCost(len(local), curve.Dim)) // ChargeLocalSort's charge
	}

	c.SetPhase("splitter")
	sel := newSelector(c, curve, local, ranks, a, opts.MaxSplitters)

	// Rung zero: keep the prior placement verbatim. Its quality is the
	// baseline objective; it moves nothing.
	best := prior
	bestQ := sel.quality(prior)
	bestTp, bestJ := obj.tp(bestQ), obj.j(bestQ, 0)
	var bestMoved int64
	// consider prices cand, of quality q, against the prior placement and,
	// when adoptable, adopts it if it beats the best J seen.
	consider := func(cand *Splitters, q Quality, adoptable bool) (tp, j float64) {
		moved := MovedElements(c, local, prior, cand)
		tp, j = obj.tp(q), obj.j(q, moved)
		if adoptable && j < bestJ {
			best, bestQ, bestTp, bestJ, bestMoved = cand, q, tp, j, moved
		}
		return tp, j
	}

	// Global positions of the prior separators in the new element order,
	// and from them the violated targets: separators farther than the
	// tolerance slack from their ideal rank r·N/p.
	slack0 := int64(obj.tol * sel.grain())
	priorPos := priorPositions(c, sel, prior)
	allTargets := sel.targets
	violated := make([]int64, 0, len(allTargets))
	violatedIdx := make([]int, 0, len(allTargets))
	for r, g := range allTargets {
		dev := priorPos[r] - g
		if dev < 0 {
			dev = -dev
		}
		if dev > slack0 {
			violated = append(violated, g)
			violatedIdx = append(violatedIdx, r)
		}
	}

	if len(violated) > 0 {
		// Refine only the violated targets: the selector's rounds, and
		// every Allreduce they issue, scale with the damage, not with p.
		// The merged candidates are the cheap end of the ladder — they
		// re-aim as few separators as the imbalance allows, so their
		// moved-bytes term is small.
		sel.targets = violated
		for slack := slack0; ; slack /= 2 {
			for sel.worstDeviation() > slack {
				if !sel.refineRound(slack) {
					break
				}
			}
			cand := mergeSeps(curve, prior, sel, violated, violatedIdx)
			q := sel.quality(cand)
			// A candidate that empties a rank is never adopted while
			// refinement can still place its separators better.
			emptied := slack > 0 && q.emptiesRank(p)
			if _, j := consider(cand, q, !emptied); !emptied && j > bestJ {
				slack = 0 // worse than the best seen: stop after this rung
			}
			if slack == 0 {
				break
			}
		}
		sel.targets = allTargets
	}

	// Final phase: the from-scratch model-driven descent, priced with the
	// migration-aware objective. It runs even with no violated separators —
	// the load-deviation gate cannot see surface-cost drift, where a
	// within-tolerance placement accumulates boundary area as the mesh
	// refines around it. The walk needs a fresh selector: the ladder above
	// refines the shared bucket tree to fine levels around the violated
	// targets, and separators snapped to deep boundaries carry more surface
	// than the octant-aligned coarse rungs from-scratch refinement walks
	// through — the rungs where Algorithm 3 finds its optimum. The fresh
	// tree reuses sel's rank and span columns. Every rung competes on J
	// against both the kept prior and the violated-only merges above, so a
	// re-aim is adopted only when its movement pays for itself within the
	// horizon.
	walk := sel.restart()
	walkT := math.Inf(1)
	walk.descend(func(cand *Splitters, q Quality) bool {
		if q.emptiesRank(p) {
			return true
		}
		tp, _ := consider(cand, q, true)
		if tp > walkT {
			// Same stop as Algorithm 3: further balancing costs more
			// surface than it saves in load.
			return false
		}
		walkT = tp
		return true
	})
	sel.rounds += walk.rounds
	// A kept prior's realized tolerance is already known from priorPos; an
	// adopted candidate (always a fresh Splitters) pays one more reduction.
	achieved := worstDevOf(priorPos, allTargets, sel.grain())
	if best != prior {
		achieved = achievedTolOf(c, sel, best)
	}
	res := &RepartResult{
		Result: Result{
			Splitters:   best,
			Quality:     bestQ,
			Predicted:   bestTp,
			Rounds:      sel.rounds,
			AchievedTol: achieved,
		},
		MovedElements: bestMoved,
		MovedBytes:    bestMoved * int64(obj.payload),
		Objective:     bestJ,
	}
	res.MigrationCost = obj.m.MigrationCost(res.MovedBytes)
	for i, sep := range best.Seps {
		if sep == prior.Seps[i] {
			res.KeptSeps++ // inherited verbatim; all p-1 when the prior is kept
		}
	}

	if opts.SkipExchange {
		return res
	}
	res.Local = exchange(c, curve, local, best)
	return res
}

// priorPositions returns the global rank-space position of each prior
// separator in the new element order: an Allreduce over per-rank counts of
// local elements before the separator.
func priorPositions(c *comm.Comm, sel *selector, prior *Splitters) []int64 {
	// Every element ranks below MaxRank128, so an InfKey separator lands at
	// len(sel.ranks) without a special case.
	seps := prior.ranks()
	pos := make([]int64, len(seps))
	for i, sr := range seps {
		pos[i] = int64(sfc.LowerBound(sel.ranks, sr))
	}
	c.Compute(int64(len(seps)) * psort.KeyBytes)
	return comm.Allreduce(c, pos, 8, comm.SumI64)
}

// worstDevOf returns the worst deviation of the given positions from their
// targets, in units of the grain.
func worstDevOf(pos, targets []int64, grain float64) float64 {
	if grain == 0 {
		return 0
	}
	var worst int64
	for i, g := range targets {
		d := pos[i] - g
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return float64(worst) / grain
}

// achievedTolOf measures the adopted placement's realized tolerance from
// its range boundaries, using the same global-position reduction as
// priorPositions.
func achievedTolOf(c *comm.Comm, sel *selector, sp *Splitters) float64 {
	pos := priorPositions(c, sel, sp)
	return worstDevOf(pos, sel.targets, sel.grain())
}

// mergeSeps assembles a candidate placement: violated separators snap to
// the refined boundary nearest their target, all others keep their prior
// key. A monotone clamp (by curve rank) repairs any inversion where a kept
// separator and a freshly snapped neighbor cross.
func mergeSeps(curve *sfc.Curve, prior *Splitters, sel *selector, violated []int64, violatedIdx []int) *Splitters {
	out := make([]sfc.Key, len(prior.Seps))
	copy(out, prior.Seps)
	for i, r := range violatedIdx {
		out[r] = sel.boundaryKeyNear(violated[i])
	}
	prev := sfc.Rank128{}
	havePrev := false
	for i, sep := range out {
		kr := sepRank(curve, sep)
		if havePrev && kr.Less(prev) {
			out[i] = out[i-1]
			kr = prev
		}
		prev, havePrev = kr, true
	}
	return &Splitters{Curve: curve, Seps: out}
}

// MovedElements counts, collectively, the elements whose owner differs
// between two placements of the same world size: each rank intersects its
// prior and next ranges per partition (binary searches over the sorted
// local elements), and one scalar reduction sums the misplaced counts.
func MovedElements(c *comm.Comm, local []sfc.Key, prior, next *Splitters) int64 {
	if prior.P() != next.P() {
		panic(fmt.Errorf("partition: MovedElements across %d and %d partitions", prior.P(), next.P()))
	}
	moved := movedBetween(prior.Ranges(local), next.Ranges(local), len(local))
	c.Compute(int64(2*prior.P()) * psort.KeyBytes)
	return comm.AllreduceScalar(c, moved, 8, comm.SumI64)
}
