package partition

import (
	"optipart/internal/comm"
	"optipart/internal/par"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// parCutoff gates the parallel selector paths (below it the chunked passes
// cost more than they save); parGrain fixes their chunk layout. Both are
// independent of the worker count, so rank arrays are identical at every
// pool width.
const (
	parCutoff = 1 << 14
	parGrain  = 1 << 12
)

// bucket is one node of the induced top-down octree during splitter
// selection. Global fields (key, state, atomic, count, start) are identical
// on every rank because they derive from reductions; lo and hi delimit the
// rank's local elements falling inside the bucket, which is a contiguous
// range because the local array is sorted along the curve.
type bucket struct {
	key    sfc.Key
	state  sfc.State
	atomic bool  // self bucket or max depth: cannot be split further
	count  int64 // global number of elements in the bucket
	start  int64 // global rank of the bucket's first element
	lo, hi int   // local element range
}

// selector drives the distributed splitter refinement shared by the
// flexible-tolerance partitioner and OptiPart. It maintains the invariant
// that buckets tile the element sequence in curve order.
//
// Each element's curve rank is linearized once, at construction, so the
// per-round bucket classification is a handful of binary searches over
// integers instead of a tree-walking scan, and a bucket's count is the
// length of the index range the searches delimit. A box around the
// element's neighbour span (sfc.Curve.SpanBox) is cached next to it, and
// refined to the exact span the first time a rung's bracket cuts it, so
// every rung's quality scan is two compares per element.
type selector struct {
	c       *comm.Comm
	curve   *sfc.Curve
	local   []sfc.Key     // sorted along the curve
	ranks   []sfc.Rank128 // ranks[i] = curve.Rank(local[i])
	lo, hi  []sfc.Rank128 // local[i]'s neighbour span or a box around it (see scanCounts)
	buckets []bucket
	p       int     // partition count, independent of the world size
	targets []int64 // ideal global splitter ranks r·N/p, r = 1..p-1
	n       int64   // global element count
	kmax    int     // max buckets refined per reduction (the paper's k ≤ p)
	rounds  int
	offsBuf []int // reused flat offset scratch for splitChunk
}

// newSelector builds a selector for p partitions over the sorted local
// elements and their rank column, ranks. Splitters derive from global
// counts alone, so p need not be the world size. The span columns come
// from a, so the selector's columns live as long as the caller holds a.
func newSelector(c *comm.Comm, p int, curve *sfc.Curve, local []sfc.Key, ranks []sfc.Rank128, a *psort.Arena, kmax int) *selector {
	s := &selector{c: c, p: p, curve: curve, local: local, ranks: ranks, kmax: kmax}
	if s.kmax <= 0 {
		s.kmax = p
	}
	s.lo, s.hi = a.Spans(len(local))
	fillColumns(curve, local, ranks, s.lo, s.hi, false)
	s.n = comm.AllreduceScalar(c, int64(len(local)), 8, comm.SumI64)
	s.start()
	return s
}

// restart returns a selector over the same elements, cached columns and
// global count with a fresh bucket tree. It issues no reduction.
func (s *selector) restart() *selector {
	t := &selector{c: s.c, p: s.p, curve: s.curve, local: s.local, ranks: s.ranks, lo: s.lo, hi: s.hi, kmax: s.kmax, n: s.n}
	t.start()
	return t
}

// start sets up the root bucket over the global count n and the ideal
// splitter ranks.
func (s *selector) start() {
	s.buckets = []bucket{{
		key:   sfc.RootKey,
		state: s.curve.RootState(),
		count: s.n,
		start: 0,
		lo:    0,
		hi:    len(s.local),
	}}
	s.targets = make([]int64, s.p-1)
	for r := 1; r < s.p; r++ {
		s.targets[r-1] = int64(r) * s.n / int64(s.p)
	}
}

// grain returns the ideal per-partition load N/p.
func (s *selector) grain() float64 {
	return float64(s.n) / float64(s.p)
}

// worstDeviation returns the largest distance from any target to its
// nearest available bucket boundary, in elements.
func (s *selector) worstDeviation() int64 {
	var worst int64
	for _, g := range s.targets {
		d := s.deviation(g)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// deviation returns the distance from target g to the nearest boundary.
func (s *selector) deviation(g int64) int64 {
	b, inside := s.locate(g)
	if !inside {
		return 0 // g falls exactly on a boundary (or outside, clamped)
	}
	left, right := s.buckets[b].sides(g)
	return min(left, right)
}

// sides returns the distances from global rank g, inside the bucket, to
// the bucket's start and end boundaries.
func (b *bucket) sides(g int64) (left, right int64) {
	return g - b.start, b.start + b.count - g
}

// locate finds global rank g among the buckets, which are in curve order
// with consecutive ranges: the index of the bucket strictly containing g
// (start < g < start+count) and true, or, when g lies on a boundary, the
// index of the bucket starting at g and false — len(s.buckets) for the end
// of the sequence.
func (s *selector) locate(g int64) (int, bool) {
	lo, hi := 0, len(s.buckets)
	for lo < hi { // first bucket starting at or after g
		mid := (lo + hi) / 2
		if s.buckets[mid].start < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.buckets) && s.buckets[lo].start == g {
		return lo, false
	}
	if lo > 0 && g < s.buckets[lo-1].start+s.buckets[lo-1].count {
		return lo - 1, true
	}
	return len(s.buckets), false
}

// refineRound splits every splittable bucket that strictly contains a
// target whose deviation exceeds slack (in elements). It returns false when
// nothing could be refined (all such targets sit in atomic buckets or on
// boundaries). One reduction is issued per kmax-sized chunk of buckets, so a
// small k bounds both the reduction payload and the O(p) scratch the paper
// discusses in §3.1.
func (s *selector) refineRound(slack int64) bool {
	toSplit := s.chooseSplits(slack)
	// All ranks derive the same toSplit from replicated global state.
	if len(toSplit) == 0 {
		return false
	}
	for lo := 0; lo < len(toSplit); lo += s.kmax {
		hi := lo + s.kmax
		if hi > len(toSplit) {
			hi = len(toSplit)
		}
		s.splitChunk(toSplit[lo:hi])
	}
	s.rounds++
	return true
}

// chooseSplits returns the indices of buckets to split this round, in
// ascending order: targets ascend, so their buckets arrive non-decreasing
// and a repeat is always the last one appended.
func (s *selector) chooseSplits(slack int64) []int {
	var out []int
	for _, g := range s.targets {
		b, inside := s.locate(g)
		if !inside || s.buckets[b].atomic {
			continue
		}
		if left, right := s.buckets[b].sides(g); min(left, right) <= slack {
			continue
		}
		if n := len(out); n == 0 || out[n-1] != b {
			out = append(out, b)
		}
	}
	return out
}

// splitChunk splits the given buckets (indices ascending) one level down:
// each becomes a self bucket (elements equal to the node itself) followed by
// the node's children in curve order. Child counts are summed globally with
// a single Allreduce over the chunk, the lines 6–19 of Algorithm 3.
//
// Local classification exploits the linearized ranks: within a bucket's
// sorted range, the self region is exactly the run of elements whose rank
// equals the node's own rank (ranks are injective over keys), and each
// child's region ends where the next traversal position's subtree begins —
// both located by binary search. The modeled cost is still the sequential
// scan the paper's implementation pays (Compute below); only the simulator
// got faster.
func (s *selector) splitChunk(idxs []int) {
	nch := s.curve.NumChildren()
	per := 1 + nch
	counts := make([]int64, len(idxs)*per)
	if need := len(idxs) * (per + 1); cap(s.offsBuf) < need {
		s.offsBuf = make([]int, need)
	}
	offsAll := s.offsBuf[:len(idxs)*(per+1)]
	// Each bucket's classification is independent (disjoint counts and offs
	// slots), so buckets chunk across the pool when there are enough to pay
	// for it.
	classify := func(i int) {
		bi := idxs[i]
		b := &s.buckets[bi]
		offs := offsAll[i*(per+1) : (i+1)*(per+1)]
		// Elements equal to the node come first in pre-order; children
		// follow in traversal-position order, contiguously.
		offs[0] = b.lo
		j := b.lo + sfc.UpperBound(s.ranks[b.lo:b.hi], s.curve.Rank(b.key))
		offs[1] = j
		counts[i*per] = int64(j - b.lo)
		for pos := 0; pos < nch; pos++ {
			end := b.hi
			if pos+1 < nch {
				nextChild := b.key.Child(s.curve.ChildAt(b.state, pos+1))
				end = j + sfc.LowerBound(s.ranks[j:b.hi], s.curve.Rank(nextChild))
			}
			offs[2+pos] = end
			counts[i*per+1+pos] = int64(end - j)
			j = end
		}
	}
	if par.Workers() > 1 && len(idxs) >= 4 {
		par.For(len(idxs), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				classify(i)
			}
		})
	} else {
		for i := range idxs {
			classify(i)
		}
	}
	// The modeled cost is the sequential scan the paper's implementation
	// pays, summed on the rank's goroutine — identical at every pool width.
	var scanned int64
	for _, bi := range idxs {
		b := &s.buckets[bi]
		scanned += int64(b.hi - b.lo)
	}
	s.c.Compute(scanned * psort.KeyBytes)
	global := comm.Allreduce(s.c, counts, 8, comm.SumI64)

	// Rebuild the bucket list with the split buckets expanded.
	next := make([]bucket, 0, len(s.buckets)+len(idxs)*nch)
	k := 0
	for bi := range s.buckets {
		if k < len(idxs) && idxs[k] == bi {
			b := s.buckets[bi]
			offs := offsAll[k*(per+1) : (k+1)*(per+1)]
			gstart := b.start
			// Self bucket (atomic).
			if selfCount := global[k*per]; selfCount > 0 {
				next = append(next, bucket{
					key: b.key, state: b.state, atomic: true,
					count: selfCount, start: gstart,
					lo: offs[0], hi: offs[1],
				})
				gstart += selfCount
			}
			for pos := 0; pos < nch; pos++ {
				cnt := global[k*per+1+pos]
				if cnt == 0 {
					continue
				}
				childKey := b.key.Child(s.curve.ChildAt(b.state, pos))
				next = append(next, bucket{
					key:    childKey,
					state:  s.curve.Next(b.state, pos),
					atomic: childKey.Level >= sfc.MaxLevel,
					count:  cnt,
					start:  gstart,
					lo:     offs[1+pos],
					hi:     offs[2+pos],
				})
				gstart += cnt
			}
			k++
			continue
		}
		next = append(next, s.buckets[bi])
	}
	s.buckets = next
}

// snap fixes every target at its nearest available boundary and returns
// the resulting separators with their p+1 global range boundaries: 0, each
// target's boundary, and n. A boundary is the start key of a bucket, or
// InfKey for the end of the sequence. Buckets are the same on every rank,
// so it issues no reduction.
func (s *selector) snap() (*Splitters, []int) {
	seps := make([]sfc.Key, len(s.targets))
	b := make([]int, len(s.targets)+2)
	for i, g := range s.targets {
		seps[i], b[i+1] = s.boundaryNear(g)
	}
	b[len(b)-1] = int(s.n)
	return &Splitters{Curve: s.curve, Seps: seps}, b
}

// boundaryNear returns the boundary nearest to global rank g: the start key
// and global start of its bucket, or InfKey and n for the end.
func (s *selector) boundaryNear(g int64) (sfc.Key, int) {
	b, inside := s.locate(g)
	if inside {
		if left, right := s.buckets[b].sides(g); left > right {
			b++
		}
	}
	if b < len(s.buckets) {
		return s.buckets[b].key, int(s.buckets[b].start)
	}
	return InfKey, int(s.n)
}
