package partition

import (
	"fmt"
	"math"
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
	return partitionSorted(c, c.Size(), local, ranks, a, opts)
}

// PartitionSorted is Partition into p partitions over elements the caller
// has sorted along opts.Curve, with their rank column: ranks[i] =
// opts.Curve.Rank(local[i]). It charges the modeled sort it skips, so at
// p = c.Size() its Result and modeled costs equal Partition's. Any world
// size selects the same p partitions, but only p = c.Size() ranks can
// exchange: otherwise it panics unless SkipExchange is set. The service calls it in one rank
// over its whole canonical octree. It must be called by all ranks.
func PartitionSorted(c *comm.Comm, p int, local []sfc.Key, ranks []sfc.Rank128, opts Options) *Result {
	if p != c.Size() && !opts.SkipExchange {
		panic(fmt.Errorf("partition: PartitionSorted into %d partitions exchanges over %d ranks; set SkipExchange", p, c.Size()))
	}
	a := psort.GetArena()
	defer psort.PutArena(a)
	return partitionSorted(c, p, local, ranks, a, opts)
}

// partitionSorted is the core behind Partition, PartitionSorted and
// Repartitioner.Seed: the modeled local sort, which each pays whether or
// not the host sorted, then the selection of p partitions over the sorted
// elements and their rank column, with the selector's span columns drawn
// from a, then the exchange.
func partitionSorted(c *comm.Comm, p int, local []sfc.Key, ranks []sfc.Rank128, a *psort.Arena, opts Options) *Result {
	obj := newObjective(opts.Machine, opts.Alpha, opts.PayloadBytes, opts.Tol, 0)
	curve := opts.Curve
	c.SetPhase("local sort")
	c.Compute(psort.LocalSortCost(len(local), curve.Dim)) // ChargeLocalSort's charge

	c.SetPhase("splitter")
	sel := newSelector(c, p, curve, local, ranks, a, opts.MaxSplitters)
	var sp *Splitters
	var b []int
	var q Quality
	switch opts.Mode {
	case ModelDriven:
		sp, b, q = runModelDriven(sel, &obj)
	default:
		slack := int64(0)
		if opts.Mode == FlexibleTolerance {
			slack = int64(opts.Tol * sel.grain())
		}
		for sel.refineRound(slack) {
		}
		sp, b = sel.snap()
		q = sel.quality(sp)
	}

	res := &Result{
		Splitters:   sp,
		Quality:     q,
		Predicted:   obj.tp(q),
		Rounds:      sel.rounds,
		AchievedTol: worstDevOf(b, sel.targets, sel.grain()),
	}

	if opts.SkipExchange {
		return res
	}
	res.Local = exchange(c, curve, local, ranks, a, sp)
	return res
}

// exchange moves every element to its owner under sp and returns the rank's
// elements after the exchange, sorted along the curve. local is sorted with
// its rank column ranks. Each key crosses the one all-to-all with its rank,
// packed in a's pairs column, and the receiver merges its p sorted runs by
// the shipped ranks (psort.MergeRuns), so no key is ranked twice; across a
// wire only the keys travel, and the receiver ranks the runs that came from
// other ranks, its own run keeping its ranks. The modeled
// charges (the all-to-all at comm's default stage width of §3.1, KeyBytes
// per element, plus a local sort of the received runs) are exactly what
// Partition has always paid; Repartition shares them so the two paths price
// data movement identically.
func exchange(c *comm.Comm, curve *sfc.Curve, local []sfc.Key, ranks []sfc.Rank128, a *psort.Arena, sp *Splitters) []sfc.Key {
	c.SetPhase("all2all")
	pairs := a.Pairs(len(local))
	for i, k := range local {
		pairs[i] = psort.KeyRank{Key: k, Rank: ranks[i]}
	}
	seps := sp.ranks()
	send := make([][]psort.KeyRank, c.Size())
	from := 0
	for r := range send {
		to := partEnd(ranks, seps, from, r)
		send[r] = pairs[from:to]
		from = to
	}
	recv := comm.Alltoallv(c, send, psort.KeyBytes, comm.AlltoallvOptions{})

	c.SetPhase("local sort")
	n := 0
	for _, run := range recv {
		n += len(run)
	}
	mine := make([]sfc.Key, n)
	psort.MergeRuns(curve, recv, mine)
	c.Compute(psort.LocalSortCost(n, curve.Dim)) // ChargeLocalSort's charge
	return mine
}

// ladder is the one adoption and stop rule of every candidate walk
// (Algorithm 3's "approach from the right", Figure 10): offer a rung's
// priced value v, and the ladder says whether to adopt it and whether to
// walk on. A rung is adopted when no earlier rung is as good, so of two
// tied rungs the earlier is kept; the walk goes on unless v is worse than
// the best. A rung that empties a rank (the paper's tolerances keep every
// partition populated) is adopted only while nothing else is held, and it
// never stops the walk.
type ladder struct {
	best float64
	held bool // best is a rung that empties no rank
}

// offer reports whether to adopt a rung priced v, and whether to walk on.
//
//alloc:zero
func (l *ladder) offer(v float64, empties bool) (adopt, more bool) {
	if empties {
		return !l.held, true
	}
	if !l.held || v < l.best {
		l.best, l.held = v, true
		return true, true
	}
	return false, v == l.best
}

// runModelDriven is the OptiPart loop of Algorithm 3: descend's rungs,
// priced on Tp and adopted and stopped by a ladder. It returns the adopted
// rung with its boundaries and its Quality as descend priced it, so the
// caller does not scan and reduce a second time.
func runModelDriven(sel *selector, obj *objective) (best *Splitters, bestB []int, bestQ Quality) {
	var l ladder
	sel.descend(func(cand *Splitters, b []int, q Quality) bool {
		adopt, more := l.offer(obj.tp(q), q.emptiesRank(sel.p))
		if adopt {
			best, bestB, bestQ = cand, b, q
		}
		return more
	})
	return best, bestB, bestQ
}

// descend is the walk of Algorithm 3 that Partition and Repartition share.
// It refines until every target has a boundary within half a grain (the
// coarse starting point of line 2), then descends one level per rung,
// handing visit each rung's snapped splitters, their p+1 global boundaries
// and their quality. The walk ends when visit returns false or nothing is
// left to refine; which rung is adopted is the visitor's ladder's business.
func (s *selector) descend(visit func(cand *Splitters, b []int, q Quality) bool) {
	coarse := int64(s.grain() / 2)
	for s.worstDeviation() > coarse {
		if !s.refineRound(coarse) {
			break
		}
	}
	for {
		cand, b := s.snap()
		if !visit(cand, b, s.quality(cand)) || !s.refineRound(0) {
			return
		}
	}
}

// quality is Algorithm 2 of sp over the selector's elements, counted by
// range over the columns it already holds (rangeCounts).
func (s *selector) quality(sp *Splitters) Quality {
	counts := make([]int64, 2*sp.P())
	s.rangeCounts(sp.ranks(), counts)
	return reduceQuality(s.c, s.curve, len(s.ranks), counts)
}

// rangeCounts is scanCounts over the selector's curve-ordered columns:
// partition r's elements are one range, ending at the first rank at or
// past separator r (partEnd), so its work is the range's length and only
// the boundary test scans it (countRange), against the partition's fixed
// bracket.
//
//alloc:zero
func (s *selector) rangeCounts(seps []sfc.Rank128, counts []int64) {
	p := len(seps) + 1
	from := 0
	for r := 0; r < p; r++ {
		to := partEnd(s.ranks, seps, from, r)
		lower, upper := bracket(seps, r)
		counts[r] = int64(to - from)
		counts[p+r] = countRange(s.curve, s.local[from:to], s.lo[from:to], s.hi[from:to], lower, upper, math.MaxInt64)
		from = to
	}
}
