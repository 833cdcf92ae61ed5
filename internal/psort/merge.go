package psort

import (
	"math/bits"

	"optipart/internal/sfc"
)

// KeyRank is one element with its curve rank: the record the partition's
// exchange moves. Every sender ranked its keys when it sorted them, so a
// receiver orders what it gets by the shipped ranks (MergeRuns) and never
// ranks a key again. The modeled charge stays KeyBytes per element: a rank
// is the simulator's shortcut, not data the modeled machine moves.
//
// Its wire form (comm.Elem) is the key's 13 bytes alone. The rank would
// more than double the bytes every frame of a wire exchange carries and
// seals; re-measured with CRC-32C seals and each run crossing the wire
// once, shipping it was still no faster than ranking the received keys
// again. So ReadElem leaves the rank Unranked and MergeRuns ranks such
// runs itself; a rank's run to itself never crosses and keeps its ranks.
type KeyRank struct {
	Key  sfc.Key
	Rank sfc.Rank128
}

// Unranked is the rank of a KeyRank decoded from the wire: MaxRank128,
// which no key ranks.
var Unranked = sfc.MaxRank128

// AppendElem appends e's wire form, its key's, to dst (comm.Elem).
func (e KeyRank) AppendElem(dst []byte) []byte { return e.Key.AppendElem(dst) }

// ReadElem sets e's key from the wire form at the front of src, and its
// rank to Unranked, and returns the rest of src.
func (e *KeyRank) ReadElem(src []byte) []byte {
	e.Rank = Unranked
	return e.Key.ReadElem(src)
}

// MergeRuns writes the keys of runs, each in curve order, to out in curve
// order; out must hold exactly the runs' total length. A run that crossed
// a wire arrives Unranked and is ranked in place along curve first. Equal
// ranks are equal keys, so the output is TreeSort's of the concatenated
// runs. It walks a loser tree over the runs' heads: one pass over the
// elements and log2(runs) rank compares each. An exhausted run's head is
// MaxRank128, which no key ranks.
func MergeRuns(curve *sfc.Curve, runs [][]KeyRank, out []sfc.Key) {
	k := 1
	for k < len(runs) {
		k <<= 1
	}
	if k == 1 {
		if len(runs) == 1 {
			for i, e := range runs[0] {
				out[i] = e.Key
			}
		}
		return
	}
	for _, run := range runs {
		if len(run) > 0 && run[0].Rank == Unranked {
			for i := range run {
				run[i].Rank = curve.Rank(run[i].Key)
			}
		}
	}
	// The tree's leaves k..2k-1 are the runs, padded with exhausted ones;
	// after the build, node n in 1..k-1 holds the loser of the final played
	// there, and the overall winner leads.
	heads := make([]sfc.Rank128, k)
	next := make([]int, k) // the index of each run's head
	tree := make([]int, k)
	win := make([]int, 2*k)
	for r := range heads {
		heads[r] = sfc.MaxRank128
		if r < len(runs) && len(runs[r]) > 0 {
			heads[r] = runs[r][0].Rank
		}
		win[k+r] = r
	}
	for n := k - 1; n > 0; n-- {
		a, b := win[2*n], win[2*n+1]
		if heads[b].Less(heads[a]) {
			a, b = b, a
		}
		win[n], tree[n] = a, b
	}
	w := win[1]
	for i := range out {
		run := runs[w]
		j := next[w]
		out[i] = run[j].Key
		j++
		next[w] = j
		if j < len(run) {
			heads[w] = run[j].Rank
		} else {
			heads[w] = sfc.MaxRank128
		}
		h := heads[w]
		for n := (w + k) >> 1; n > 0; n >>= 1 {
			// Swap the winner and the node's loser when the loser's head
			// is smaller, without a branch: m is all ones then.
			l := tree[n]
			m := -lessBit(heads[l], h)
			tree[n] = l ^ (l^w)&int(m)
			w ^= (w ^ l) & int(m)
			h.Hi ^= (h.Hi ^ heads[l].Hi) & m
			h.Lo ^= (h.Lo ^ heads[l].Lo) & m
		}
	}
}

// lessBit is 1 when a < b and 0 otherwise: the borrow of a - b.
func lessBit(a, b sfc.Rank128) uint64 {
	_, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	_, borrow = bits.Sub64(a.Hi, b.Hi, borrow)
	return borrow
}
