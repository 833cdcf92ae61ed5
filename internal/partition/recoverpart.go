package partition

import (
	"encoding/binary"

	"optipart/internal/comm"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// SplittersFromDistribution derives the splitters implied by the current
// data placement: each rank's elements (sorted in curve order, globally
// non-overlapping across ranks, as a SampleSort or Partition leaves them)
// stay where they are, and rank r's separator is the first key held by
// rank r; empty ranks collapse to an empty range. This is how a partition
// produced by a plain distributed sort — which never materializes
// splitters — gets a Splitters value that EvaluateQuality, ghost
// construction, and the performance model can consume. Collective.
func SplittersFromDistribution(c *comm.Comm, curve *sfc.Curve, local []sfc.Key) *Splitters {
	me := firstKey{N: int64(len(local))}
	if len(local) > 0 {
		me.Key = local[0]
	}
	all := comm.Allgather(c, []firstKey{me}, psort.KeyBytes+8)
	p := c.Size()
	seps := make([]sfc.Key, p-1)
	// Walk backwards so an empty rank inherits the separator above it,
	// giving it an empty [sep, sep) range instead of swallowing keys.
	cur := InfKey
	for r := p - 1; r >= 1; r-- {
		if all[r].N > 0 {
			cur = all[r].Key
		}
		seps[r-1] = cur
	}
	return &Splitters{Curve: curve, Seps: seps}
}

// firstKey is one rank's share of SplittersFromDistribution's gather: its
// element count and, when it holds any, its first key.
type firstKey struct {
	N   int64
	Key sfc.Key
}

// AppendElem appends f's wire form (comm.Elem): N little-endian, then the
// key's own.
func (f firstKey) AppendElem(dst []byte) []byte {
	return f.Key.AppendElem(binary.LittleEndian.AppendUint64(dst, uint64(f.N)))
}

// ReadElem sets f from the wire form at the front of src and returns the
// rest of src.
func (f *firstKey) ReadElem(src []byte) []byte {
	f.N = int64(binary.LittleEndian.Uint64(src))
	return f.Key.ReadElem(src[8:])
}
