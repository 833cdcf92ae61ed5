package sfc

// This file linearizes the curve order into fixed-width integers. The
// pre-order over octant keys that Compare walks one tree level at a time can
// be materialized as a single number: the key's curve index padded with zero
// digits down to MaxLevel, with the level appended as a tiebreak so an
// ancestor (whose padded digits equal those of its position-0 descendant
// chain) sorts before its descendants. The padded index needs Dim·MaxLevel
// bits (90 in 3D) and the level 5 more, so a rank fits comfortably in 128
// bits. Production SFC partitioners (Borrell et al.; Burstedde & Holke's
// coarse-mesh partitioning) use exactly this trick: once keys carry totally
// ordered integer ranks, every hot comparison in sorting, splitter location,
// bucket counting, and ghost-owner lookup becomes a branchless two-word
// integer compare instead of a virtual table-lookup walk.
//
// The defining invariant, enforced by TestRankMatchesCompare and
// FuzzRankOrder: for every curve and every pair of valid keys,
//
//	Rank(a) < Rank(b)  ⇔  Compare(a, b) < 0.
//
// Rank is the one order production code uses; Compare is the independent
// reference it is checked against. Ranks order the *simulation's* data
// structures; they never enter the machine model, so modeled costs are
// unchanged by their use.

// rankLevelBits is the width of the level tiebreak field at the bottom of a
// rank (MaxLevel = 30 < 2^5).
const rankLevelBits = 5

// Rank128 is a key's linearized position on a curve: a 128-bit unsigned
// integer held as two words, ordered lexicographically (Hi, then Lo).
type Rank128 struct {
	Hi, Lo uint64
}

// MaxRank128 is the largest representable rank. No valid key maps to it
// (key ranks use at most Dim·MaxLevel+5 = 95 bits), so it serves as the
// "+infinity" sentinel for end-of-curve separators.
var MaxRank128 = Rank128{Hi: ^uint64(0), Lo: ^uint64(0)}

// Less reports whether r precedes o.
func (r Rank128) Less(o Rank128) bool {
	return r.Hi < o.Hi || (r.Hi == o.Hi && r.Lo < o.Lo)
}

// LowerBound returns the first index i in the ascending ranks with
// ranks[i] >= r, or len(ranks) when every element precedes r.
//
//alloc:zero
func LowerBound(ranks []Rank128, r Rank128) int {
	lo, hi := 0, len(ranks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ranks[mid].Less(r) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the first index i in the ascending ranks with
// ranks[i] > r, or len(ranks) when no element follows r. Over a separator
// array it is the owner lookup: the number of separators at or before r.
//
//alloc:zero
func UpperBound(ranks []Rank128, r Rank128) int {
	lo, hi := 0, len(ranks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.Less(ranks[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// LowerBoundKeys is LowerBound over keys in curve order, ranking only the
// keys it probes: the first index i with c.Rank(keys[i]) >= r, or len(keys)
// when every key precedes r. It is the one search for where a separator
// rank falls in a sorted key run.
//
//alloc:zero
func (c *Curve) LowerBoundKeys(keys []Key, r Rank128) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.Rank(keys[mid]).Less(r) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Digit returns the d-th byte of the rank counting from the most
// significant useful byte (d = 0 is bits 95..88, d = 11 is bits 7..0). The
// MSD radix sort in internal/psort buckets on these.
func (r Rank128) Digit(d int) uint8 {
	if d < 4 {
		return uint8(r.Hi >> (24 - 8*d))
	}
	return uint8(r.Lo >> (56 - 8*(d-4)))
}

// RankDigits is the number of radix bytes in a rank (96 bits of payload).
const RankDigits = 12

// Rank returns the key's exact position on the curve as a totally ordered
// integer: Rank(a) < Rank(b) iff Compare(a, b) < 0, for every pair of valid
// keys of this curve's dimension. Unlike Index it is defined for every level
// up to MaxLevel. The padded digit string ends with the level as the pre-order
// tiebreak: among keys whose padded digits coincide — necessarily an ancestor
// chain — the coarser key comes first.
//
// Morton ranks are computed branchlessly by bit interleaving: a Morton
// position digit is the child label itself, so the padded index is exactly
// the interleave of the (masked) anchor coordinates. Hilbert ranks descend
// the key's levels through the fused posNext state table, one L1 load per
// level, reading each level's label from that same interleave
// (hilbertDigits).
func (c *Curve) Rank(k Key) Rank128 {
	if c.Kind == Morton {
		// Mask below-resolution anchor bits so non-canonical keys rank the
		// same as under the level-bounded descent.
		mask := ^lowMask(MaxLevel - int(k.Level))
		if c.Dim == 3 {
			mHi, mLo := morton3(k.X&mask, k.Y&mask, k.Z&mask)
			return Rank128{
				Hi: mHi<<rankLevelBits | mLo>>(64-rankLevelBits),
				Lo: mLo<<rankLevelBits | uint64(k.Level),
			}
		}
		m := part1by1(uint64(k.X&mask)) | part1by1(uint64(k.Y&mask))<<1
		return Rank128{
			Hi: m >> (64 - rankLevelBits),
			Lo: m<<rankLevelBits | uint64(k.Level),
		}
	}
	hi, lo, _ := c.hilbertDigits(k, int(k.Level))
	r := Rank128{Hi: hi, Lo: lo}.shl(uint(c.Dim*(MaxLevel-int(k.Level)) + rankLevelBits))
	r.Lo |= uint64(k.Level)
	return r
}

// hilbertDigits descends k's levels 1..n through the fused posNext table and
// returns their position digits, right-aligned in two words, and the table
// row below level n: the state there times 8, ready to OR with a label.
//
// The labels come from one bit interleave of the anchor, the part1by2
// spread of Morton ranks (part1by1 in 2-D), aligned so that level 1's label
// is the word's top Dim bits (descend). In 2-D the whole descent fits one
// word. In 3-D the word holds anchor bits 29..9, levels 1..21; a deeper key
// descends on through a second interleave of bits 8..0 and joins the two
// digit words once. It is the one Hilbert descent of Rank and of
// RankWithSpan's shared prefix.
//
//alloc:zero
func (c *Curve) hilbertDigits(k Key, n int) (hi, lo uint64, row uint8) {
	tbl := (*[256]uint8)(c.posNext)
	if c.Dim == 2 {
		lo, row = descend(tbl, (part1by1(uint64(k.X))|part1by1(uint64(k.Y))<<1)<<4, 0, n, 2)
		return 0, lo, row
	}
	lo, row = descend(tbl, (part1by2(uint64(k.X>>9))|part1by2(uint64(k.Y>>9))<<1|part1by2(uint64(k.Z>>9))<<2)<<1, 0, min(n, 21), 3)
	if n <= 21 {
		return 0, lo, row
	}
	var d uint64
	d, row = descend(tbl, (part1by2(uint64(k.X&0x1FF))|part1by2(uint64(k.Y&0x1FF))<<1|part1by2(uint64(k.Z&0x1FF))<<2)<<37, row, n-21, 3)
	s := uint(3*(n-21)) & 63
	return lo >> (64 - s), lo<<s | d, row
}

// descend walks n levels down from table row row, reading each level's
// child label from the top dim bits of the label word m, and returns the
// levels' digits and the row below them. A level costs one shift of m and
// one load; the state stays pre-shifted as the row e&^7.
func descend(tbl *[256]uint8, m uint64, row uint8, n int, dim uint) (digits uint64, _ uint8) {
	for t := 0; t < n; t++ {
		e := tbl[row|uint8(m>>(64-dim))]
		digits, row, m = digits<<dim|uint64(e&7), e&^7, m<<dim
	}
	return digits, row
}

// morton3 interleaves three 30-bit coordinates into the 90-bit Morton word
// (x in bit 0 of each triple) using the classic parallel-prefix spread.
func morton3(x, y, z uint32) (hi, lo uint64) {
	lw := part1by2(uint64(x)&0x7FFF) | part1by2(uint64(y)&0x7FFF)<<1 | part1by2(uint64(z)&0x7FFF)<<2
	hw := part1by2(uint64(x)>>15) | part1by2(uint64(y)>>15)<<1 | part1by2(uint64(z)>>15)<<2
	return hw >> 19, hw<<45 | lw
}

// part1by2 spreads the low 21 bits of v so bit i lands at bit 3i.
func part1by2(v uint64) uint64 {
	v &= 0x1FFFFF
	v = (v | v<<32) & 0x1F00000000FFFF
	v = (v | v<<16) & 0x1F0000FF0000FF
	v = (v | v<<8) & 0x100F00F00F00F00F
	v = (v | v<<4) & 0x10C30C30C30C30C3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// part1by1 spreads the low 32 bits of v so bit i lands at bit 2i.
func part1by1(v uint64) uint64 {
	v &= 0xFFFFFFFF
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}
