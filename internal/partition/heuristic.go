package partition

import (
	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// HeuristicOptions configures the bottom-up heuristic of Sundar, Sampath &
// Biros 2008 (the paper's ref [35]), which §3 identifies as the state of
// the art OptiPart improves upon: first partition the fine octree with the
// standard equal-work SFC partition, then coarsen it and repartition the
// coarse octree with weights equal to the number of fine descendants,
// hoping the coarse boundaries have smaller overlap.
//
// Its two shortcomings, per the paper: it is a heuristic with no quality
// guarantee, and it is oblivious to the machine and the application — the
// same inputs give the same partition everywhere.
type HeuristicOptions struct {
	Curve *sfc.Curve
	// CoarsenLevels is how many levels the fine elements are coarsened
	// before the weighted repartition (2 by default, the classic choice).
	CoarsenLevels int
	// Machine and Alpha only fill Result.Predicted for comparison against
	// OptiPart; the heuristic itself never consults them.
	Machine machine.Machine
	Alpha   float64
	// StageWidth configures the exchanges.
	StageWidth int
	// SkipExchange computes splitters and quality only.
	SkipExchange bool
}

// BottomUpHeuristic runs the ref-[35] pipeline and returns the resulting
// partition in the same form as Partition. Collective.
func BottomUpHeuristic(c *comm.Comm, local []sfc.Key, opts HeuristicOptions) *Result {
	if opts.Alpha == 0 {
		opts.Alpha = machine.DefaultAlpha
	}
	if opts.CoarsenLevels <= 0 {
		opts.CoarsenLevels = 2
	}
	curve := opts.Curve

	// Stage 1: standard equal-work fine partition (the "construct and
	// partition a complete linear octree" step).
	fine := Partition(c, local, Options{
		Curve:      curve,
		Mode:       EqualWork,
		Machine:    opts.Machine,
		Alpha:      opts.Alpha,
		StageWidth: opts.StageWidth,
	})
	mine := fine.Local

	// Stage 2: coarsen the local elements and accumulate fine-element
	// weights per coarse octant. The local array is sorted, so equal
	// coarse ancestors are adjacent.
	c.SetPhase("splitter")
	type coarse struct {
		key sfc.Key
		w   int64
	}
	var coarseRuns []coarse
	for _, k := range mine {
		ck := k
		if int(k.Level) > opts.CoarsenLevels {
			ck = k.Ancestor(k.Level - uint8(opts.CoarsenLevels))
		} else {
			ck = k.Ancestor(0)
		}
		if n := len(coarseRuns); n > 0 && coarseRuns[n-1].key == ck {
			coarseRuns[n-1].w++
			continue
		}
		coarseRuns = append(coarseRuns, coarse{key: ck, w: 1})
	}
	c.Compute(int64(len(mine)) * psort.KeyBytes)
	coarseKeys := make([]sfc.Key, len(coarseRuns))
	weights := make(map[sfc.Key]int64, len(coarseRuns))
	for i, cr := range coarseRuns {
		coarseKeys[i] = cr.key
		weights[cr.key] += cr.w
	}

	// Stage 3: weighted equal-work partition of the coarse octants. The
	// resulting coarse splitters are also valid fine splitters (coarse
	// keys are octants).
	coarseRes := Partition(c, coarseKeys, Options{
		Curve:        curve,
		Mode:         EqualWork,
		Machine:      opts.Machine,
		Alpha:        opts.Alpha,
		StageWidth:   opts.StageWidth,
		SkipExchange: true,
		Weight:       func(k sfc.Key) int64 { return weights[k] },
	})
	sp := coarseRes.Splitters

	res := &Result{
		Splitters:   sp,
		Rounds:      fine.Rounds + coarseRes.Rounds,
		AchievedTol: coarseRes.AchievedTol,
	}
	res.Quality = EvaluateQuality(c, curve, mine, sp)
	res.Predicted = res.Quality.Predict(opts.Machine, opts.Alpha)
	if opts.SkipExchange {
		return res
	}

	// Final redistribution of the fine elements by the coarse splitters.
	res.Local = exchange(c, curve, mine, sp, opts.StageWidth)
	return res
}
