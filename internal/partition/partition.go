package partition

import (
	"fmt"
	"strings"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// Mode selects the stopping rule of the splitter refinement.
type Mode int

const (
	// EqualWork refines until every splitter is as close to r·N/p as the
	// data allows: the standard SFC partition (a distributed TreeSort).
	EqualWork Mode = iota
	// FlexibleTolerance stops refining a splitter once it is within
	// tol·N/p of its ideal rank (§3.2), leaving partition boundaries on
	// coarser octants and thereby reducing boundary surface.
	FlexibleTolerance
	// ModelDriven is OptiPart (Algorithm 3): refinement continues only
	// while the performance model Tp = α·tc·Wmax + tw·Cmax predicts an
	// improvement, automatically finding the machine- and application-
	// optimal tolerance.
	ModelDriven
)

func (m Mode) String() string {
	switch m {
	case EqualWork:
		return "equal-work"
	case FlexibleTolerance:
		return "flexible"
	case ModelDriven:
		return "optipart"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps a mode name, compared without regard to case, to its Mode:
// the String forms "equal-work", "flexible" and "optipart", plus "equal",
// the commands' spelling of equal-work. It is the one reader of the
// commands' -mode flag.
func ParseMode(s string) (Mode, error) {
	if strings.EqualFold(s, "equal") {
		return EqualWork, nil
	}
	for _, m := range []Mode{EqualWork, FlexibleTolerance, ModelDriven} {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("partition: unknown mode %q (want equal, flexible or optipart)", s)
}

// Options configures a partitioning run.
type Options struct {
	Curve *sfc.Curve
	Mode  Mode

	// Tol is the load-balance tolerance for FlexibleTolerance, as a
	// fraction of the ideal grain N/p.
	Tol float64

	// Machine and Alpha parameterize the performance model for ModelDriven
	// (and fill Result.Predicted in every mode).
	Machine machine.Machine
	Alpha   float64

	// PayloadBytes is the application's wire size per ghost element for
	// the model's communication term (0 means the default
	// machine.GhostPayloadBytes). Together with Alpha it makes the
	// partitioner application-aware: a compute-heavy kernel refines
	// further than a halo-heavy one on the same mesh and machine.
	PayloadBytes int

	// MaxSplitters is the paper's k ≤ p: the maximum number of buckets
	// refined per reduction. Zero means p.
	MaxSplitters int

	// SkipExchange computes splitters and quality without moving the
	// elements, for experiments that only inspect partition quality.
	SkipExchange bool
}

// Result reports the outcome of a partitioning run on one rank.
type Result struct {
	// Local is the rank's elements after the exchange, in curve order
	// (nil when SkipExchange).
	Local []sfc.Key
	// Splitters define the computed partition (identical on all ranks).
	Splitters *Splitters
	// Quality of the final partition.
	Quality Quality
	// Predicted is Eq. (3) evaluated on the final quality.
	Predicted float64
	// Rounds is the number of refinement rounds performed.
	Rounds int
	// AchievedTol is the realized worst deviation from r·N/p in units of
	// N/p.
	AchievedTol float64
}

// Partition sorts the rank's elements, selects splitters under the chosen
// mode, and (unless SkipExchange) exchanges elements so that every rank
// holds exactly its partition, sorted along the curve. It must be called
// collectively by all ranks.
func Partition(c *comm.Comm, local []sfc.Key, opts Options) *Result {
	// The call holds one pooled arena: the sort leaves its rank column
	// aligned with the sorted elements, and the selector reuses it next to
	// the span columns, instead of ranking local a second time.
	a := psort.GetArena()
	defer psort.PutArena(a)
	ranks, _ := psort.TreeSortArena(opts.Curve, local, a)
	return partitionSorted(c, local, ranks, a, opts)
}

// PartitionSorted is Partition over elements the caller has already sorted
// along opts.Curve, with their rank column: ranks[i] = opts.Curve.Rank(local[i]).
// It skips the sort but charges the same modeled local sort, so its Result
// and modeled costs equal Partition's on the same sorted block. The service
// calls it with blocks of its canonical octree, ranked once when it was
// canonicalized. It must be called collectively by all ranks.
func PartitionSorted(c *comm.Comm, local []sfc.Key, ranks []sfc.Rank128, opts Options) *Result {
	a := psort.GetArena()
	defer psort.PutArena(a)
	return partitionSorted(c, local, ranks, a, opts)
}

// partitionSorted is the core behind both doors: the modeled local sort,
// which both pay whether or not the host sorted, then splitter selection
// over the sorted elements and their rank column, with the selector's span
// columns drawn from a, then the exchange.
func partitionSorted(c *comm.Comm, local []sfc.Key, ranks []sfc.Rank128, a *psort.Arena, opts Options) *Result {
	obj := newObjective(opts.Machine, opts.Alpha, opts.PayloadBytes, opts.Tol, 0)
	curve := opts.Curve
	c.SetPhase("local sort")
	c.Compute(psort.LocalSortCost(len(local), curve.Dim)) // ChargeLocalSort's charge

	c.SetPhase("splitter")
	sel := newSelector(c, curve, local, ranks, a, opts.MaxSplitters)
	var sp *Splitters
	var achieved float64
	switch opts.Mode {
	case ModelDriven:
		sp, achieved = runModelDriven(sel, &obj)
	default:
		slack := int64(0)
		if opts.Mode == FlexibleTolerance {
			slack = int64(opts.Tol * sel.grain())
		}
		for sel.refineRound(slack) {
		}
		sp = sel.snap()
		achieved = sel.achievedTolerance()
	}

	res := &Result{
		Splitters:   sp,
		Rounds:      sel.rounds,
		AchievedTol: achieved,
	}
	res.Quality = sel.quality(sp)
	res.Predicted = obj.tp(res.Quality)

	if opts.SkipExchange {
		return res
	}
	res.Local = exchange(c, curve, local, sp)
	return res
}

// exchange moves every element to its owner under sp and returns the rank's
// elements after the exchange, sorted along the curve. The modeled charges
// (the all-to-all at comm's default stage width of §3.1 plus a local sort of
// the received runs) are exactly what Partition has always paid;
// Repartition shares them so the two paths price data movement identically.
func exchange(c *comm.Comm, curve *sfc.Curve, local []sfc.Key, sp *Splitters) []sfc.Key {
	c.SetPhase("all2all")
	ranges := sp.Ranges(local)
	send := make([][]sfc.Key, c.Size())
	for r := 0; r < c.Size(); r++ {
		send[r] = local[ranges[r]:ranges[r+1]]
	}
	recv := comm.Alltoallv(c, send, psort.KeyBytes, comm.AlltoallvOptions{})

	c.SetPhase("local sort")
	var mine []sfc.Key
	for _, run := range recv {
		mine = append(mine, run...)
	}
	psort.ChargeLocalSort(c, curve, mine)
	return mine
}

// runModelDriven is the OptiPart loop of Algorithm 3. Refinement starts
// from the coarse splitters produced by the first rounds (a high effective
// tolerance) and descends one level per iteration; after each round the
// model prices the induced partition, and the loop keeps the best partition
// seen, stopping as soon as a round makes the prediction worse — the
// "approaches the optimum from the right" behaviour of Figure 10.
func runModelDriven(sel *selector, obj *objective) (best *Splitters, bestTol float64) {
	var bestT float64
	// A start so coarse that a rank owns nothing is never acceptable (the
	// paper's tolerances keep every partition populated); refine past it,
	// adopting every rung until one is populated.
	populated := false
	sel.descend(func(cand *Splitters, q Quality) bool {
		t := obj.tp(q)
		if populated && t > bestT {
			// The model says further balancing costs more than it saves.
			return false
		}
		best, bestT, bestTol = cand, t, sel.achievedTolerance()
		populated = populated || !q.emptiesRank(sel.c.Size())
		return true
	})
	return best, bestTol
}

// descend is the walk of Algorithm 3 that Partition and Repartition share.
// It refines until every target has a boundary within half a grain (the
// coarse starting point of line 2), then descends one level per rung,
// handing visit each rung's snapped splitters and their quality. The walk
// ends when visit returns false or nothing is left to refine; which rung
// is adopted is the visitor's business.
func (s *selector) descend(visit func(cand *Splitters, q Quality) bool) {
	coarse := int64(s.grain() / 2)
	for s.worstDeviation() > coarse {
		if !s.refineRound(coarse) {
			break
		}
	}
	for {
		cand := s.snap()
		if !visit(cand, s.quality(cand)) || !s.refineRound(0) {
			return
		}
	}
}

// quality is EvaluateQuality of sp over the selector's elements, reusing
// the rank and span columns it already holds.
func (s *selector) quality(sp *Splitters) Quality {
	return evaluateQuality(s.c, s.curve, s.local, s.ranks, s.lo, s.hi, sp)
}
