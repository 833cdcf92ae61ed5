package sfc

import "math/bits"

// This file computes an element's neighbour span: the lowest and highest
// rank among its same-size face neighbours, the cached input of every
// Algorithm 2 scan in internal/partition. A face neighbour differs from its
// element only on one axis a, by ±1 at the element's level, and the borrow
// or carry of that ±1 flips a contiguous run of the coordinate's low bits.
// Above the run's top bit — the divergence level — the neighbour's curve
// digits equal the element's; from it down, its child label at every level
// is the element's with bit a flipped. So no neighbour is ranked from the
// root: the element's own walk supplies the shared digit prefix, and each
// neighbour only walks its short tail, typically two levels.
//
// The same prefix bounds the span before any walk: every neighbour lies in
// k's ancestor one level above the shallowest divergence, so that
// ancestor's rank range, a mask of Rank(k), is a box around the span.
// Most elements are interior, and the box alone settles them (SpanBox).

// RankWithSpan returns Rank(k) together with the lowest and highest rank
// among k's same-size face neighbours, or the sentinels (MaxRank128, zero)
// when k has none: the root octant, whose every face lies on the domain
// boundary. k must be valid for the curve's dimension. r equals Rank(k).
//
// The span is all Algorithm 2 needs of k's neighbours: an element is a
// boundary octant exactly when its span leaves its owner's rank range.
//
//alloc:zero
func (c *Curve) RankWithSpan(k Key) (r, lo, hi Rank128) {
	if k.Level == 0 {
		return c.Rank(k), MaxRank128, Rank128{}
	}
	if c.Kind == Morton {
		return c.mortonRankWithSpan(k)
	}
	return c.hilbertRankWithSpan(k)
}

// SpanBox returns a box around k's neighbour span, derived from r =
// Rank(k) without a walk: the rank range [lo, hi] of k's ancestor at level
// tmin-1, where tmin is the shallowest divergence level among k's in-domain
// face neighbours (see hilbertRankWithSpan). Every such neighbour shares
// k's curve digits above tmin, on either curve, so it ranks inside the
// box, and so does k. The box's lo keeps a zero level field, which no exact
// span's lo carries: a neighbour ranks with level k.Level >= 1, and a key
// with no neighbours has the sentinel MaxRank128. IsSpanBox tells the two
// apart. A level-0 key gets those exact sentinels.
//
//alloc:zero
func (c *Curve) SpanBox(k Key, r Rank128) (lo, hi Rank128) {
	level := int(k.Level)
	if level == 0 {
		return MaxRank128, Rank128{}
	}
	low := uint(MaxLevel - level)
	// The longest run over long neighbours in the domain. A 2-D key's zero
	// Z has no in-domain long neighbour (a run of 32), so every axis is
	// read without a loop.
	run := func(u uint32) uint {
		u >>= low
		n := uint(bits.TrailingZeros32(u ^ -(u & 1)))
		if n >= uint(level) {
			n = 0
		}
		return n
	}
	// Digits below the ancestor's, levels tmin..MaxLevel, and the level
	// field: at most Dim·MaxLevel+rankLevelBits = 95 bits.
	w := uint(c.Dim)*(low+max(run(k.X), run(k.Y), run(k.Z))+1) + rankLevelBits
	m := Rank128{Hi: 1<<(w-min(w, 64)) - 1, Lo: 1<<w - 1}
	return Rank128{Hi: r.Hi &^ m.Hi, Lo: r.Lo &^ m.Lo}, r.or(m)
}

// IsSpanBox reports whether lo, the low end of a neighbour span, is
// SpanBox's box rather than an exact span: its level field is zero.
//
//alloc:zero
func IsSpanBox(lo Rank128) bool { return lo.Lo&(1<<rankLevelBits-1) == 0 }

// hilbertRankWithSpan sorts each axis's two faces by the parity of k's
// coordinate c on it. The short neighbour (c-1 for odd c, c+1 for even)
// differs from k only in the last level's label. The long one (the other
// sign) flips the run of trailing bits equal to c's lowest, plus the bit
// above, and may lie outside the domain. So k's own walk supplies the
// digits above the shallowest divergence level, tmin; from there k and its
// long neighbours walk together, one independent table load each per level
// and one loop exit; and the last level adds one load per neighbour. Every
// neighbour shares k's level and the digits above tmin, so they are
// ordered by their unpadded tails, and only the lowest and highest tail are
// padded into ranks.
//
//alloc:zero
func (c *Curve) hilbertRankWithSpan(k Key) (r, lo, hi Rank128) {
	level := int(k.Level)
	dim := uint(c.Dim)
	low := uint(MaxLevel - level) // anchor bit read at the last level

	// flip[a] holds the anchor bits k's long neighbour on axis a differs
	// in, zero when that neighbour lies outside the domain: its chain then
	// walks as k's own, and it folds as the short neighbour on the axis,
	// which is in the domain, so it needs no mask. A 2-D key's third axis
	// has neither neighbour.
	coord := [3]uint32{k.X, k.Y, k.Z}
	var flip [3]uint32
	run := 0 // the longest run over long neighbours in the domain
	for a := 0; a < c.Dim; a++ {
		u := coord[a] >> low
		n := bits.TrailingZeros32(u ^ -(u & 1))
		if n < level {
			flip[a] = (2<<n - 1) << low
			run = max(run, n)
		}
	}
	tmin := level - run

	// k's digits above tmin: Rank's own descent, stopped short.
	phi, plo, row := c.hilbertDigits(k, tmin-1)
	prefix := Rank128{Hi: phi, Lo: plo}
	tbl := (*[256]uint8)(c.posNext)
	s := uint32(row >> 3)

	// Levels tmin..level-1 for k (chain 0) and its long neighbours (chains
	// 1..3, one per axis), each from k's state at tmin. Words hold up to
	// 63/dim-1 digits; a 3-D tail longer than that (a run past 20 levels)
	// moves the first 20 digits to the spill words once.
	s0, s1, s2, s3 := s, s, s, s
	var w0, w1, w2, w3, h0, h1, h2, h3 uint64
	spill := tmin + 63/c.Dim - 1
	for t := tmin; t < level; t++ {
		if t == spill {
			h0, h1, h2, h3 = w0, w1, w2, w3
			w0, w1, w2, w3 = 0, 0, 0, 0
		}
		shift := uint(MaxLevel - t)
		label := (k.X>>shift)&1 | (k.Y>>shift)&1<<1 | (k.Z>>shift)&1<<2
		e0 := tbl[(s0<<3|label)&255]
		e1 := tbl[(s1<<3|label^(flip[0]>>shift&1))&255]
		e2 := tbl[(s2<<3|label^(flip[1]>>shift&1)<<1)&255]
		e3 := tbl[(s3<<3|label^(flip[2]>>shift&1)<<2)&255]
		w0, s0 = w0<<dim|uint64(e0&7), uint32(e0>>3)
		w1, s1 = w1<<dim|uint64(e1&7), uint32(e1>>3)
		w2, s2 = w2<<dim|uint64(e2&7), uint32(e2>>3)
		w3, s3 = w3<<dim|uint64(e3&7), uint32(e3>>3)
	}
	// The last level: every neighbour flips its axis's label bit there.
	label := (k.X>>low)&1 | (k.Y>>low)&1<<1 | (k.Z>>low)&1<<2
	digit := func(s, l uint32) uint64 { return uint64(tbl[(s<<3|l)&255] & 7) }
	pad := dim*low + rankLevelBits
	base := prefix.shl(dim*uint(level-tmin+1) + pad)
	base.Lo |= uint64(k.Level)
	// Every short neighbour lies in the domain: c-1 >= 0 for odd c, and
	// c+1 < 2^level for even c.
	ws, ss := [3]uint64{w1, w2, w3}, [3]uint32{s1, s2, s3}
	if spill >= level {
		// Nothing spilled: the tails, dim·(level-tmin+1) <= 63 bits, fold
		// as plain words.
		wlo, whi := ^uint64(0), uint64(0)
		for a := 0; a < c.Dim; a++ {
			bit := uint32(1) << a
			t := w0<<dim | digit(s0, label^bit)
			wlo, whi = min(wlo, t), max(whi, t)
			t = ws[a]<<dim | digit(ss[a], label^bit)
			wlo, whi = min(wlo, t), max(whi, t)
		}
		own := Rank128{Lo: w0<<dim | digit(s0, label)}
		return base.or(own.shl(pad)), base.or(Rank128{Lo: wlo}.shl(pad)), base.or(Rank128{Lo: whi}.shl(pad))
	}
	// A longer tail keeps its digits from spill on in the w words and the
	// ones above in the h words: fold 128-bit tails.
	wbits := dim * uint(level-spill+1)
	tail := func(h, w, d uint64) Rank128 {
		return Rank128{Hi: h >> (64 - wbits), Lo: h<<wbits | w<<dim | d}
	}
	hs := [3]uint64{h1, h2, h3}
	lo, hi = MaxRank128, Rank128{}
	for a := 0; a < c.Dim; a++ {
		bit := uint32(1) << a
		t := tail(h0, w0, digit(s0, label^bit))
		lo, hi = minRank(lo, t), maxRank(hi, t)
		t = tail(hs[a], ws[a], digit(ss[a], label^bit))
		lo, hi = minRank(lo, t), maxRank(hi, t)
	}
	own := tail(h0, w0, digit(s0, label))
	return base.or(own.shl(pad)), base.or(lo.shl(pad)), base.or(hi.shl(pad))
}

// mortonRankWithSpan needs no walk: every neighbour's rank is its own
// loop-free interleave.
//
//alloc:zero
func (c *Curve) mortonRankWithSpan(k Key) (r, lo, hi Rank128) {
	r, lo = c.Rank(k), MaxRank128
	size := k.Size()
	coord := [3]uint32{k.X, k.Y, k.Z}
	fold := func() {
		n := c.Rank(Key{X: coord[0], Y: coord[1], Z: coord[2], Level: k.Level})
		lo, hi = minRank(lo, n), maxRank(hi, n)
	}
	for a := 0; a < c.Dim; a++ {
		x := coord[a]
		if x != 0 {
			coord[a] = x - size
			fold()
		}
		if x+size < 1<<MaxLevel {
			coord[a] = x + size
			fold()
		}
		coord[a] = x
	}
	return r, lo, hi
}

// shl returns r shifted left by s < 128 bits.
func (r Rank128) shl(s uint) Rank128 {
	if s >= 64 {
		return Rank128{Hi: r.Lo << (s - 64)}
	}
	return Rank128{Hi: r.Hi<<s | r.Lo>>(64-s), Lo: r.Lo << s}
}

// or returns the bitwise union of r and o.
func (r Rank128) or(o Rank128) Rank128 { return Rank128{Hi: r.Hi | o.Hi, Lo: r.Lo | o.Lo} }

// minRank and maxRank select without a branch: the borrow of a - b is 1
// exactly when a < b.
func minRank(a, b Rank128) Rank128 {
	m := -lessBit(a, b)
	return Rank128{Hi: b.Hi ^ (a.Hi^b.Hi)&m, Lo: b.Lo ^ (a.Lo^b.Lo)&m}
}

func maxRank(a, b Rank128) Rank128 {
	m := -lessBit(a, b)
	return Rank128{Hi: a.Hi ^ (a.Hi^b.Hi)&m, Lo: a.Lo ^ (a.Lo^b.Lo)&m}
}

// lessBit is 1 when a < b and 0 otherwise.
func lessBit(a, b Rank128) uint64 {
	_, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	_, borrow = bits.Sub64(a.Hi, b.Hi, borrow)
	return borrow
}
