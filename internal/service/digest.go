package service

import (
	"math"

	"optipart/internal/sfc"
)

// digest128 is the value-typed content hash of a canonicalized request. As
// a plain two-word struct it is a map key that costs no allocation to build
// or look up — the hot path of every cache hit. Two independent 64-bit
// xor-multiply lanes give a 128-bit identifier; because every lookup also
// verifies the canonical octree element-wise (octree.SoA.EqualKeys), a
// collision costs one extra computation, never a wrong answer.
type digest128 struct{ hi, lo uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// Second lane: a different odd multiplier (the 64-bit golden-ratio
	// constant) and a salted offset make the lanes drift apart immediately.
	altOffset64 = fnvOffset64 ^ 0x9e3779b97f4a7c15
	altPrime64  = 0x9e3779b97f4a7c15
)

// digester folds 64-bit words into both lanes. Word-at-a-time xor-multiply
// (an FNV-1a variant with 8-byte granularity) keeps the digest at two
// multiplies per word, so hashing is a small fraction of the sort that
// precedes it.
type digester struct{ h1, h2 uint64 }

func newDigester() digester { return digester{h1: fnvOffset64, h2: altOffset64} }

//alloc:zero
func (d *digester) word(x uint64) {
	d.h1 = (d.h1 ^ x) * fnvPrime64
	d.h2 = (d.h2 ^ x) * altPrime64
}

// str folds a string without allocating: 8 bytes per word, length-prefixed
// so "ab"+"c" and "a"+"bc" cannot collide across adjacent fields.
//
//alloc:zero
func (d *digester) str(s string) {
	d.word(uint64(len(s)))
	var w uint64
	shift := 0
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << shift
		shift += 8
		if shift == 64 {
			d.word(w)
			w, shift = 0, 0
		}
	}
	if shift > 0 {
		d.word(w)
	}
}

// sum finishes both lanes with an avalanche (xorshift-multiply) so that
// low-entropy tails still flip high bits.
//
//alloc:zero
func (d *digester) sum() digest128 {
	mix := func(h uint64) uint64 {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
		return h
	}
	return digest128{hi: mix(d.h1), lo: mix(d.h2)}
}

// digestRequest content-addresses a canonicalized request: every parameter
// that can change the computed partition is folded in — the curve, the
// partition count and mode, the tolerance, the machine's cost model and
// identity, the application parameters — followed by the canonical octree
// itself. Two requests digest equal iff they ask the same question (up to a
// 2^-128 collision, which the element-wise verify then catches).
//
//alloc:zero
func digestRequest(req *Request, canon []sfc.Key) digest128 {
	d := newDigester()
	d.word(uint64(req.CurveKind))
	d.word(uint64(req.Dim))
	d.word(uint64(req.Ranks))
	d.word(uint64(req.Mode))
	d.word(math.Float64bits(req.Tol))
	d.word(math.Float64bits(req.Alpha))
	d.word(uint64(req.PayloadBytes))
	d.str(req.Machine.Name)
	d.word(math.Float64bits(req.Machine.Tc))
	d.word(math.Float64bits(req.Machine.Ts))
	d.word(math.Float64bits(req.Machine.Tw))
	d.word(uint64(len(canon)))
	for _, k := range canon {
		d.word(uint64(k.X) | uint64(k.Y)<<32)
		d.word(uint64(k.Z) | uint64(k.Level)<<32)
	}
	return d.sum()
}
