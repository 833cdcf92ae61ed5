package sfc

import (
	"fmt"
	"strings"
	"sync"
)

// Kind selects the space-filling curve.
type Kind int

const (
	// Morton is the Z-order curve: the child visit order is the same at
	// every node and equals the child labels themselves.
	Morton Kind = iota
	// Hilbert is the Hilbert curve: the child visit order at a node depends
	// on the orientation state inherited from the node's ancestors, and
	// consecutive cells along the curve are always face neighbors.
	Hilbert
)

func (k Kind) String() string {
	switch k {
	case Morton:
		return "Morton"
	case Hilbert:
		return "Hilbert"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps a curve name, compared without regard to case, to its
// Kind: "morton" or "hilbert", which are also the String forms. It is the
// one reader of the commands' -curve flag.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Morton, Hilbert} {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sfc: unknown curve %q (want morton or hilbert)", s)
}

// State is the orientation of a curve within one subtree node. For the
// Hilbert curve it follows Hamilton's compact-Hilbert formulation: E is the
// entry corner of the sub-hypercube and D the primary direction. The Morton
// curve has a single state.
type State struct {
	E, D uint8
}

// Curve is a space-filling curve over a 2^Dim-ary tree. It provides, for
// every node state, the permutation of children along the curve (the Rh of
// Algorithms 1 and 3) and the child subtree states.
//
// Curves are immutable and safe for concurrent use.
type Curve struct {
	Kind Kind
	Dim  int

	nchild int
	// Hilbert state tables, indexed by packed state then child.
	// childAt[s][pos] = child label visited at position pos.
	// posOf[s][label] = visit position of child label.
	// next[s][pos]    = packed state of the child subtree at position pos.
	childAt [][]uint8
	posOf   [][]uint8
	next    [][]uint8
	// posNext fuses posOf and next into one flat lookup for the Rank hot
	// loop: posNext[s<<3|label] = pos | nextState<<3, so each descent level
	// costs a single L1 load instead of two slice-of-slice chases.
	posNext []uint8
}

// curveCache memoizes the four (Kind, Dim) combinations. Curves are
// immutable and safe for concurrent use, so every NewCurve(kind, dim) call
// can return the same instance; rebuilding the Hilbert state tables per
// construction site (every benchmark iteration, every experiment trial) was
// pure waste.
var curveCache struct {
	mu sync.Mutex
	by [2][4]*Curve // [kind][dim]
}

// NewCurve builds a curve of the given kind for dim dimensions (2 or 3).
// Construction is memoized: repeated calls with the same kind and dim return
// the same (immutable, concurrency-safe) *Curve. An unknown kind or dim
// panics with an error.
func NewCurve(kind Kind, dim int) *Curve {
	if dim != 2 && dim != 3 {
		panic(fmt.Errorf("sfc: unsupported dimension %d", dim))
	}
	if kind != Morton && kind != Hilbert {
		panic(fmt.Errorf("sfc: unknown curve kind %v", kind))
	}
	curveCache.mu.Lock()
	defer curveCache.mu.Unlock()
	if c := curveCache.by[kind][dim]; c != nil {
		return c
	}
	c := &Curve{Kind: kind, Dim: dim, nchild: 1 << dim}
	if kind == Hilbert {
		c.buildHilbertTables()
	}
	curveCache.by[kind][dim] = c
	return c
}

// NumChildren returns 2^Dim.
func (c *Curve) NumChildren() int { return c.nchild }

// RootState returns the curve state at the root of the tree.
func (c *Curve) RootState() State { return State{} }

// ChildAt returns the child label visited at traversal position pos within a
// node of the given state.
func (c *Curve) ChildAt(s State, pos int) int {
	if c.Kind == Morton {
		return pos
	}
	return int(c.childAt[c.pack(s)][pos])
}

// PosOf returns the traversal position of the child with the given label
// within a node of the given state. It is the inverse of ChildAt.
func (c *Curve) PosOf(s State, label int) int {
	if c.Kind == Morton {
		return label
	}
	return int(c.posOf[c.pack(s)][label])
}

// Next returns the state of the child subtree visited at position pos.
func (c *Curve) Next(s State, pos int) State {
	if c.Kind == Morton {
		return s
	}
	return c.unpack(c.next[c.pack(s)][pos])
}

func (c *Curve) pack(s State) int { return int(s.E)<<2 | int(s.D) }
func (c *Curve) unpack(p uint8) State {
	return State{E: p >> 2, D: p & 3}
}

// buildHilbertTables precomputes the child permutation and state transition
// for every reachable (E, D) state using Hamilton's entry-point/direction
// construction. The number of states is small (at most 2^dim * dim).
func (c *Curve) buildHilbertTables() {
	n := uint(c.Dim)
	nstates := (1 << n) * 4 // packed as E<<2 | D; D < dim <= 3
	c.childAt = make([][]uint8, nstates)
	c.posOf = make([][]uint8, nstates)
	c.next = make([][]uint8, nstates)
	for e := 0; e < 1<<n; e++ {
		for d := 0; d < c.Dim; d++ {
			s := State{E: uint8(e), D: uint8(d)}
			p := c.pack(s)
			ca := make([]uint8, c.nchild)
			po := make([]uint8, c.nchild)
			nx := make([]uint8, c.nchild)
			for pos := 0; pos < c.nchild; pos++ {
				label := tInverse(gray(uint32(pos)), uint32(e), uint32(d), n)
				ca[pos] = uint8(label)
				po[label] = uint8(pos)
				ne := uint32(e) ^ rotl(entry(uint32(pos), n), uint32(d)+1, n)
				nd := (uint32(d) + direction(uint32(pos), n) + 1) % uint32(n)
				nx[pos] = uint8(ne)<<2 | uint8(nd)
			}
			c.childAt[p] = ca
			c.posOf[p] = po
			c.next[p] = nx
		}
	}
	// Always 256 entries so Rank can convert to *[256]uint8 and mask the
	// index, eliminating the bounds check in its inner loop (dim 2 uses only
	// the low half).
	c.posNext = make([]uint8, 256)
	for p := 0; p < nstates; p++ {
		if c.posOf[p] == nil {
			continue
		}
		for label := 0; label < c.nchild; label++ {
			pos := c.posOf[p][label]
			c.posNext[p<<3|label] = pos | c.next[p][pos]<<3
		}
	}
}

// gray returns the Gray code of i.
func gray(i uint32) uint32 { return i ^ i>>1 }

// trailingOnes returns the number of trailing set bits of i.
func trailingOnes(i uint32) uint32 {
	var n uint32
	for i&1 == 1 {
		n++
		i >>= 1
	}
	return n
}

// entry returns Hamilton's entry point e(i) for traversal position i.
func entry(i uint32, n uint) uint32 {
	if i == 0 {
		return 0
	}
	return gray(2 * ((i - 1) / 2))
}

// direction returns Hamilton's intra-subcube direction d(i).
func direction(i uint32, n uint) uint32 {
	switch {
	case i == 0:
		return 0
	case i%2 == 0:
		return trailingOnes(i-1) % uint32(n)
	default:
		return trailingOnes(i) % uint32(n)
	}
}

// rotl rotates the low n bits of b left by r.
func rotl(b, r uint32, n uint) uint32 {
	r %= uint32(n)
	if r == 0 {
		return b & (1<<n - 1)
	}
	return (b<<r | b>>(uint32(n)-r)) & (1<<n - 1)
}

// tInverse transforms a canonical-frame label back into node coordinates:
// T^-1_{e,d}(b) = rotl(b, d+1) ^ e.
func tInverse(b, e, d uint32, n uint) uint32 {
	return rotl(b, d+1, n) ^ e
}
