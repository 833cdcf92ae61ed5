package partition

import (
	"errors"
	"fmt"

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

	// MovedElements counts the elements whose owner changed from the prior
	// placement to the adopted one.
	MovedElements int64
}

// Repartition is the incremental, migration-aware counterpart of Partition
// for online AMR loops: it seeds selection from the prior placement and
// prices every candidate — the kept prior, low-movement merges that re-aim
// only the separators whose imbalance exceeds the tolerance, and the rungs
// of a full from-scratch descent — with the migration-aware objective
// J = horizon·Tp + tw·movedBytes, adopting a rebalance only when the model
// says the moved bytes pay for themselves within the horizon. On an
// unchanged mesh the descent reproduces the prior placement, so the call
// keeps it and moves nothing. Every candidate is priced from its p+1
// global range boundaries, and only the prior's cost a reduction.
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
	sel := newSelector(c, p, curve, local, ranks, a, opts.MaxSplitters)

	// Rung zero: keep the prior placement verbatim. Its quality is the
	// baseline objective; it moves nothing. Its range boundaries in the new
	// element order are what every other candidate's moved count is
	// measured against.
	best, bestQ := prior, sel.quality(prior)
	priorB := priorBounds(c, sel, prior)
	bestB, bestMoved := priorB, int64(0)
	var jl ladder
	jl.offer(obj.j(bestQ, 0), false)
	// offerJ prices cand, of quality q and boundaries b, on the J ladder,
	// adopts it when the ladder does, and reports whether the ladder walks
	// on.
	offerJ := func(cand *Splitters, b []int, q Quality, empties bool) bool {
		moved := movedBetween(priorB, b, int(sel.n))
		adopt, more := jl.offer(obj.j(q, moved), empties)
		if adopt {
			best, bestB, bestQ, bestMoved = cand, b, q, moved
		}
		return more
	}

	// The violated targets: separators farther than the tolerance slack
	// from their ideal rank r·N/p.
	slack0 := int64(obj.tol * sel.grain())
	allTargets := sel.targets
	violated := make([]int64, 0, len(allTargets))
	violatedIdx := make([]int, 0, len(allTargets))
	for r, g := range allTargets {
		if d := int64(priorB[r+1]) - g; max(d, -d) > slack0 {
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
			cand, b := mergeSeps(curve, prior, priorB, sel, violated, violatedIdx)
			q := sel.quality(cand)
			// A candidate that empties a rank is never adopted while
			// refinement can still place its separators better.
			if !offerJ(cand, b, q, slack > 0 && q.emptiesRank(p)) || slack == 0 {
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
	// tree reuses sel's rank and span columns and global count. Every rung
	// competes on J against both the kept prior and the violated-only merges
	// above, so a re-aim is adopted only when its movement pays for itself
	// within the horizon.
	walk := sel.restart()
	var tl ladder
	walk.descend(func(cand *Splitters, b []int, q Quality) bool {
		empties := q.emptiesRank(p)
		offerJ(cand, b, q, empties)
		// Same stop as Algorithm 3, on Tp: further balancing costs more
		// surface than it saves in load.
		_, more := tl.offer(obj.tp(q), empties)
		return more
	})
	sel.rounds += walk.rounds
	res := &RepartResult{
		Result: Result{
			Splitters:   best,
			Quality:     bestQ,
			Predicted:   obj.tp(bestQ),
			Rounds:      sel.rounds,
			AchievedTol: worstDevOf(bestB, allTargets, sel.grain()),
		},
		MovedElements: bestMoved,
	}
	if opts.SkipExchange {
		return res
	}
	res.Local = exchange(c, curve, local, ranks, a, best)
	return res
}

// priorBounds returns the p+1 global range boundaries of the prior
// placement in the new element order: an Allreduce over per-rank counts of
// local elements before each separator.
func priorBounds(c *comm.Comm, sel *selector, prior *Splitters) []int {
	// Every element ranks below MaxRank128, so an InfKey separator lands at
	// len(sel.ranks) without a special case.
	seps := prior.ranks()
	pos := make([]int64, len(seps))
	for i, sr := range seps {
		pos[i] = int64(sfc.LowerBound(sel.ranks, sr))
	}
	c.Compute(int64(len(seps)) * psort.KeyBytes)
	b := make([]int, len(seps)+2)
	for i, v := range comm.Allreduce(c, pos, 8, comm.SumI64) {
		b[i+1] = int(v)
	}
	b[len(b)-1] = int(sel.n)
	return b
}

// worstDevOf returns the worst deviation of the inner boundaries b[1:p]
// from their targets, in units of the grain.
func worstDevOf(b []int, targets []int64, grain float64) float64 {
	if grain == 0 {
		return 0
	}
	var worst int64
	for i, g := range targets {
		d := int64(b[i+1]) - g
		worst = max(worst, d, -d)
	}
	return float64(worst) / grain
}

// mergeSeps assembles a candidate placement and its range boundaries:
// violated separators snap to the refined boundary nearest their target,
// all others keep their prior key and boundary. A monotone clamp (by curve
// rank) repairs any inversion where a kept separator and a freshly snapped
// neighbor cross, copying the left separator and its boundary.
func mergeSeps(curve *sfc.Curve, prior *Splitters, priorB []int, sel *selector, violated []int64, violatedIdx []int) (*Splitters, []int) {
	out := make([]sfc.Key, len(prior.Seps))
	copy(out, prior.Seps)
	b := append([]int(nil), priorB...)
	for i, r := range violatedIdx {
		out[r], b[r+1] = sel.boundaryNear(violated[i])
	}
	prev := sfc.Rank128{}
	havePrev := false
	for i, sep := range out {
		kr := sepRank(curve, sep)
		if havePrev && kr.Less(prev) {
			out[i], b[i+1] = out[i-1], b[i]
			kr = prev
		}
		prev, havePrev = kr, true
	}
	return &Splitters{Curve: curve, Seps: out}, b
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
