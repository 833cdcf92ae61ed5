package partition

import (
	"fmt"

	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// RepartConfig parameterizes a serial Repartitioner.
type RepartConfig struct {
	Curve *sfc.Curve
	P     int // number of partitions

	// Machine parameterizes the performance model, with the default α and
	// ghost payload (machine.DefaultAlpha, machine.GhostPayloadBytes).
	Machine machine.Machine

	// Tol is the imbalance a warm start tolerates before a separator is
	// considered violated, as a fraction of the ideal grain N/p (0 means
	// 0.1). Within the tolerance window the engine prefers coarse octant
	// boundaries, mirroring the flexible-tolerance partitioner.
	Tol float64

	// Horizon is the migration knob of machine.PredictRepartition: the
	// number of application steps the placement is expected to survive
	// (0 means machine.DefaultHorizon).
	Horizon float64
}

// StepResult reports the placement one Seed/Step/Rebuild call adopted.
type StepResult struct {
	Quality   Quality
	Predicted float64 // Eq. (3) of the adopted placement, one step

	// MovedElements/MovedBytes count the elements whose owner changed
	// relative to the placement in force before the call (zero for Seed,
	// which has no prior). Bytes are elements × machine.GhostPayloadBytes.
	MovedElements int64
	MovedBytes    int64
	MigrationCost float64 // machine.MigrationCost(MovedBytes)
	Objective     float64 // horizon·Tp + MigrationCost of the adopted placement
	Rounds        int     // candidate placements priced by the ladder
	Kept          bool    // the prior placement was kept verbatim
}

// Repartitioner is the serial incremental repartitioning engine: one
// address space holding the whole mesh as arena-backed key, rank and
// neighbour-span columns, repartitioned across timesteps of an AMR loop.
// Seed ingests the first mesh and cold-starts a model-driven placement;
// Step applies an octree.Delta — re-ranking only the refined and coarsened
// subtrees while every unchanged element keeps its cached curve rank and
// span — and warm-starts the next placement from the previous one,
// trading residual imbalance against migration through
// machine.PredictRepartition. Each partition's work and boundary count is
// memoized by its rank bracket and kept exact across a delta, so a Step
// scans only the partitions whose bracket a rung moves, not the mesh. The
// Step path performs no steady-state allocations: columns live on a
// pooled psort.Arena and all selection scratch is sized once per (p, n)
// high-water mark.
//
// A Repartitioner is not safe for concurrent use.
type Repartitioner struct {
	cfg    RepartConfig
	obj    objective // cfg's model knobs with the defaults filled
	arena  *psort.Arena
	keys   []sfc.Key     // current mesh, curve order
	ranks  []sfc.Rank128 // ranks[i] = Curve.Rank(keys[i]), the warm cache
	lo, hi []sfc.Rank128 // keys[i]'s neighbour span, from Curve.RankWithSpan
	n      int

	seps     []sfc.Key // p-1 separators of the placement in force
	sepRanks []sfc.Rank128

	// Selection scratch, sized once for p.
	aPos, bPos, bestPos []int         // p+1 position arrays
	candRanks           []sfc.Rank128 // p-1 candidate separator ranks
	bestCounts          []int64       // counts of the best rung so far

	// The count memo: counts holds the 2p [work | boundary] counts of the
	// current mesh under the separator ranks memoRanks. scanQuality
	// recounts only the partitions whose bracket differs from the memo's,
	// and applyDelta adjusts counts leaf by leaf, so the memo stays exact
	// across Steps. ingest invalidates it.
	memoRanks []sfc.Rank128 // p-1
	counts    []int64
	memoOK    bool
}

// NewRepartitioner builds an engine for the given configuration.
func NewRepartitioner(cfg RepartConfig) *Repartitioner {
	if cfg.Curve == nil {
		panic(fmt.Errorf("partition: RepartConfig.Curve is nil"))
	}
	if cfg.P < 1 {
		panic(fmt.Errorf("partition: RepartConfig.P = %d, want >= 1", cfg.P))
	}
	p := cfg.P
	return &Repartitioner{
		cfg:        cfg,
		obj:        newObjective(cfg.Machine, 0, 0, cfg.Tol, cfg.Horizon),
		arena:      &psort.Arena{},
		seps:       make([]sfc.Key, p-1),
		sepRanks:   make([]sfc.Rank128, p-1),
		aPos:       make([]int, p+1),
		bPos:       make([]int, p+1),
		bestPos:    make([]int, p+1),
		candRanks:  make([]sfc.Rank128, p-1),
		bestCounts: make([]int64, 2*p),
		memoRanks:  make([]sfc.Rank128, p-1),
		counts:     make([]int64, 2*p),
	}
}

// Len returns the current element count.
func (e *Repartitioner) Len() int { return e.n }

// Keys returns the current mesh in curve order. The slice is owned by the
// engine and valid until the next Seed/Step/Rebuild.
func (e *Repartitioner) Keys() []sfc.Key { return e.keys }

// Splitters returns a fresh Splitters describing the placement in force.
// It allocates; call it off the hot path.
func (e *Repartitioner) Splitters() *Splitters {
	seps := make([]sfc.Key, len(e.seps))
	copy(seps, e.seps)
	return &Splitters{Curve: e.cfg.Curve, Seps: seps}
}

// Seed ingests the first mesh (keys are copied, sorted, and linearized)
// and cold-starts a placement by the model-driven ladder, with no
// migration term because there is no prior data to move.
func (e *Repartitioner) Seed(keys []sfc.Key) StepResult {
	e.ingest(keys)
	return e.selectPlacement(false)
}

// Rebuild re-ingests a full mesh (re-ranking every element) and
// warm-starts from the given prior placement. It is the entry point for
// callers that hold a prior Splitters but no edit script, and adopts
// exactly the placement Step would have adopted for the same mesh and
// prior. Its one caller outside the tests is the benchmark spine, which
// times it as partition.rebuild_ms, the cold route Step is compared
// against; the service runs a cold PartitionSorted instead.
func (e *Repartitioner) Rebuild(keys []sfc.Key, prior *Splitters) StepResult {
	if prior.P() != e.cfg.P {
		panic(fmt.Errorf("partition: Rebuild prior has %d partitions, engine has %d", prior.P(), e.cfg.P))
	}
	e.ingest(keys)
	copy(e.seps, prior.Seps)
	copy(e.sepRanks, prior.ranks())
	return e.selectPlacement(true)
}

// Step applies one refine/coarsen delta to the cached mesh and warm-starts
// the next placement from the previous one. Only refined children and
// coarsened parents are re-ranked; every other element's cached rank is
// copied in runs. Its cost follows the delta: each edited leaf adjusts the
// count memo, and a rung rescans only the partitions whose bracket moved,
// plus one bulk copy of the columns. This is the
// zero-steady-state-allocation path of the online AMR loop.
//
//alloc:zero once the arena columns and scratch are warm; growth past a size high-water mark is the cold path.
func (e *Repartitioner) Step(delta octree.Delta) StepResult {
	if delta.OldLen != e.n {
		//alloc:escape mismatched-delta panic path, never taken in a correct loop
		panic(fmt.Errorf("partition: Step delta against %d elements, engine holds %d", delta.OldLen, e.n))
	}
	e.applyDelta(delta)
	return e.selectPlacement(true)
}

// ingest copies keys into the arena's key column, sorts them along the
// curve, linearizes duplicates and ancestor pairs out in place
// (octree.LinearizeSorted), and fills every survivor's rank and exact
// neighbour span with fillSpans.
func (e *Repartitioner) ingest(keys []sfc.Key) {
	curve := e.cfg.Curve
	ks := e.arena.Keys(len(keys))
	copy(ks, keys)
	psort.TreeSortArena(curve, ks, e.arena)
	e.n = len(octree.LinearizeSorted(ks))
	e.memoOK = false
	e.keys, e.ranks = e.arena.Columns(e.n)
	e.lo, e.hi = e.arena.Spans(e.n)
	// Size the scratch span pair now, as the sort sized the key and rank
	// scratch pair, so the first Step reslices instead of allocating.
	e.arena.AltSpans(e.n)
	fillSpans(curve, e.keys, e.ranks, e.lo, e.hi)
}

// applyDelta merges the surviving elements into the scratch columns,
// copying each untouched run between delta events in bulk and re-ranking
// and re-spanning only what the delta touched, then adopts the scratch
// columns. Every removed and added leaf adjusts the count memo.
//
//alloc:zero once the alt columns are warm.
func (e *Repartitioner) applyDelta(delta octree.Delta) {
	curve := e.cfg.Curve
	nch := curve.NumChildren()
	nk, nr := e.arena.AltColumns(delta.NewLen) //alloc:escape alt-column growth is a once-per-high-water-mark cold path; warm arenas reslice
	nlo, nhi := e.arena.AltSpans(delta.NewLen) //alloc:escape alt-column growth is a once-per-high-water-mark cold path; warm arenas reslice
	w, i, ri, ci := 0, 0, 0, 0
	for {
		next := e.n
		if ci < len(delta.Coarsened) {
			next = delta.Coarsened[ci]
		}
		if ri < len(delta.Refined) && delta.Refined[ri] < next {
			next = delta.Refined[ri]
		}
		copy(nk[w:], e.keys[i:next])
		copy(nr[w:], e.ranks[i:next])
		copy(nlo[w:], e.lo[i:next])
		copy(nhi[w:], e.hi[i:next])
		w += next - i
		i = next
		if i == e.n {
			break
		}
		if ci < len(delta.Coarsened) && delta.Coarsened[ci] == i {
			for j := i; j < i+nch; j++ {
				e.adjust(e.ranks[j], e.lo[j], e.hi[j], -1)
			}
			parent := e.keys[i].Parent()
			nk[w] = parent
			nr[w], nlo[w], nhi[w] = curve.RankWithSpan(parent)
			e.adjust(nr[w], nlo[w], nhi[w], 1)
			w++
			i += nch
			ci++
			continue
		}
		e.adjust(e.ranks[i], e.lo[i], e.hi[i], -1)
		st := curve.StateAt(e.keys[i])
		for pos := 0; pos < nch; pos++ {
			child := e.keys[i].Child(curve.ChildAt(st, pos)) //alloc:escape Key.Child's max-level panic is inlined here; the Evolver never refines a max-level leaf
			nk[w] = child
			nr[w], nlo[w], nhi[w] = curve.RankWithSpan(child)
			e.adjust(nr[w], nlo[w], nhi[w], 1)
			w++
		}
		i++
		ri++
	}
	if w != delta.NewLen {
		//alloc:escape corrupt-delta panic path, never taken in a correct loop
		panic(fmt.Errorf("partition: delta replay produced %d elements, want %d", w, delta.NewLen))
	}
	e.arena.SwapAlt()
	e.n = delta.NewLen
	e.keys, e.ranks = e.arena.Columns(delta.NewLen) //alloc:escape column growth is a once-per-high-water-mark cold path; warm arenas reslice
	e.lo, e.hi = e.arena.Spans(delta.NewLen)        //alloc:escape column growth is a once-per-high-water-mark cold path; warm arenas reslice
}

// adjust moves one leaf, with cached rank and neighbour span lo, hi, into
// (d = 1) or out of (d = -1) the count memo: the partition whose memo
// bracket holds the rank gains or loses its work, and its boundary count
// when the span leaves that bracket (scanCounts' test). On an invalid memo
// it is harmless, since the next scan recounts every partition.
//
//alloc:zero
func (e *Repartitioner) adjust(rank, lo, hi sfc.Rank128, d int64) {
	o := sfc.UpperBound(e.memoRanks, rank)
	lower, upper := bracket(e.memoRanks, o)
	e.counts[o] += d
	if lo.Less(lower) || !hi.Less(upper) {
		e.counts[e.cfg.P+o] += d
	}
}

// selectPlacement runs the slack-halving ladder: at each rung, separators
// whose deviation from the ideal grain exceeds the rung's slack move to
// the coarsest octant boundary inside the slack window around their
// target, and the candidate is priced by the migration-aware objective
// J = horizon·Tp + MigrationCost (warm) or by Tp alone (cold). The ladder
// keeps the best placement seen and stops at the first worsening rung —
// the same approach-from-the-right rule as runModelDriven.
//
//alloc:zero
func (e *Repartitioner) selectPlacement(warm bool) StepResult {
	p := e.cfg.P
	if p == 1 || e.n == 0 {
		for i := range e.seps {
			e.seps[i] = InfKey
			e.sepRanks[i] = sfc.MaxRank128
		}
		for i := range e.bPos {
			e.bPos[i] = e.n
		}
		e.bPos[0] = 0
		q := e.scanQuality(e.bPos)
		return StepResult{Quality: q, Predicted: e.obj.tp(q), Objective: e.obj.j(q, 0), Kept: warm}
	}

	// Prior positions: where the current separators fall in the new mesh.
	e.aPos[0], e.aPos[p] = 0, e.n
	for r := 1; r < p; r++ {
		e.aPos[r] = sfc.LowerBound(e.ranks, e.sepRanks[r-1])
	}

	grain := float64(e.n) / float64(p)
	slack := int(e.obj.tol * grain)
	if !warm {
		slack = int(grain / 2)
	}

	res := StepResult{}
	haveBest := warm
	if warm {
		// Rung zero: keep the prior placement verbatim; it moves nothing.
		q := e.scanQuality(e.aPos)
		copy(e.bestPos, e.aPos)
		copy(e.bestCounts, e.counts)
		res = StepResult{Quality: q, Predicted: e.obj.tp(q), Objective: e.obj.j(q, 0), Rounds: 1, Kept: true}
	}
	for {
		e.buildCandidate(slack, warm)
		q := e.scanQuality(e.bPos)
		var moved int64
		if warm {
			moved = movedBetween(e.aPos, e.bPos, e.n)
		}
		j := e.obj.j(q, moved)
		res.Rounds++
		if !haveBest || j < res.Objective {
			haveBest = true
			copy(e.bestPos, e.bPos)
			copy(e.bestCounts, e.counts)
			res.Quality = q
			res.Predicted = e.obj.tp(q)
			res.MovedElements = moved
			res.MovedBytes = moved * int64(e.obj.payload)
			res.MigrationCost = e.obj.m.MigrationCost(res.MovedBytes)
			res.Objective = j
			res.Kept = false
		} else if j > res.Objective {
			break // refining further costs more than it saves
		}
		if slack == 0 {
			break
		}
		slack /= 2
	}

	// Adopt the winner, and leave its counts in the memo for the next
	// Step. A kept prior stays verbatim (its separator keys may be octant
	// boundaries that are no longer element keys); a moved placement
	// re-derives separators from element positions.
	e.posRanks(e.bestPos, e.memoRanks)
	copy(e.counts, e.bestCounts)
	if !res.Kept {
		copy(e.sepRanks, e.memoRanks)
		for r := 1; r < p; r++ {
			e.seps[r-1] = InfKey
			if e.bestPos[r] < e.n {
				e.seps[r-1] = e.keys[e.bestPos[r]]
			}
		}
	}
	return res
}

// buildCandidate fills bPos with the rung's candidate placement: each
// separator keeps its prior position when within slack of its target
// (warm), otherwise it snaps to the coarsest element boundary inside the
// slack window around the target, ties broken toward the target. Positions
// are clamped strictly increasing, so every partition holds at least one
// element whenever n >= p.
//
//alloc:zero
func (e *Repartitioner) buildCandidate(slack int, warm bool) {
	p := e.cfg.P
	e.bPos[0], e.bPos[p] = 0, e.n
	if e.n < p {
		for r := 1; r < p; r++ {
			e.bPos[r] = r * e.n / p
		}
		return
	}
	for r := 1; r < p; r++ {
		target := r * e.n / p
		if warm {
			dev := e.aPos[r] - target
			if dev < 0 {
				dev = -dev
			}
			if dev <= slack {
				e.bPos[r] = e.aPos[r]
				e.clampPos(r)
				continue
			}
		}
		lo, hi := target-slack, target+slack
		if lo < 1 {
			lo = 1
		}
		if hi > e.n-1 {
			hi = e.n - 1
		}
		best := target
		if best < lo {
			best = lo
		}
		if best > hi {
			best = hi
		}
		bestLevel := e.keys[best].Level
		bestDist := best - target
		if bestDist < 0 {
			bestDist = -bestDist
		}
		for j := lo; j <= hi; j++ {
			lv := e.keys[j].Level
			if lv > bestLevel {
				continue
			}
			dist := j - target
			if dist < 0 {
				dist = -dist
			}
			if lv < bestLevel || dist < bestDist {
				best, bestLevel, bestDist = j, lv, dist
			}
		}
		e.bPos[r] = best
		e.clampPos(r)
	}
}

// clampPos forces bPos[r] into (bPos[r-1], n-(p-1-r)]: strictly after the
// previous separator, with room for the separators still to come.
//
//alloc:zero
func (e *Repartitioner) clampPos(r int) {
	if e.bPos[r] <= e.bPos[r-1] {
		e.bPos[r] = e.bPos[r-1] + 1
	}
	if maxPos := e.n - (e.cfg.P - 1 - r); e.bPos[r] > maxPos {
		e.bPos[r] = maxPos
	}
}

// scanQuality is the serial Algorithm 2 over the engine's columns, which
// are in curve order with distinct ranks. Under positions pos, partition r
// is therefore exactly the elements [pos[r], pos[r+1]): its work is the
// range's length, and its bracket is [ranks[pos[r]], ranks[pos[r+1]]),
// zero before the first partition and MaxRank128 at or past n — the
// brackets scanCounts derives from the same separator ranks. Only the
// boundary test scans (countRange), and only for partitions whose bracket
// differs from the memo's; the memo then holds pos's counts.
//
//alloc:zero
func (e *Repartitioner) scanQuality(pos []int) Quality {
	p := e.cfg.P
	e.posRanks(pos, e.candRanks)
	for r := 0; r < p; r++ {
		lower, upper := bracket(e.candRanks, r)
		if e.memoOK {
			if ml, mu := bracket(e.memoRanks, r); ml == lower && mu == upper {
				continue
			}
		}
		e.counts[r] = int64(pos[r+1] - pos[r])
		e.counts[p+r] = countRange(e.lo[pos[r]:pos[r+1]], e.hi[pos[r]:pos[r+1]], lower, upper)
	}
	copy(e.memoRanks, e.candRanks)
	e.memoOK = true
	return foldQuality(e.counts)
}

// posRanks fills seps with the separator ranks of positions pos: the
// cached rank of the element each separator points at, MaxRank128 at or
// past n.
//
//alloc:zero
func (e *Repartitioner) posRanks(pos []int, seps []sfc.Rank128) {
	for r := 1; r < e.cfg.P; r++ {
		if pos[r] >= e.n {
			seps[r-1] = sfc.MaxRank128
		} else {
			seps[r-1] = e.ranks[pos[r]]
		}
	}
}

// countRange counts the boundary octants among one partition's elements,
// given their neighbour spans lo, hi and the partition's bracket
// [lower, upper): scanCounts' two compares, without its owner search.
//
//alloc:zero
func countRange(lo, hi []sfc.Rank128, lower, upper sfc.Rank128) int64 {
	hi = hi[:len(lo)]
	var b int64
	for i := range lo {
		if lo[i].Less(lower) || !hi[i].Less(upper) {
			b++
		}
	}
	return b
}

// movedBetween counts the elements whose owner differs between the
// placements aPos and bPos (p+1 range boundaries each, as Splitters.Ranges
// returns them) over n curve-ordered elements: n minus the overlap of each
// rank's old and new ranges — the exact moved-element count, computed from
// 2(p+1) integers instead of a mesh scan.
//
//alloc:zero
func movedBetween(aPos, bPos []int, n int) int64 {
	var kept int64
	for r := 0; r+1 < len(aPos); r++ {
		lo, hi := aPos[r], aPos[r+1]
		if bPos[r] > lo {
			lo = bPos[r]
		}
		if bPos[r+1] < hi {
			hi = bPos[r+1]
		}
		if hi > lo {
			kept += int64(hi - lo)
		}
	}
	return int64(n) - kept
}
