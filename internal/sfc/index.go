package sfc

import "fmt"

// Index returns the position of the key's cell along the curve among all
// cells of the same level: a value in [0, 2^(Dim*Level)). For the Morton
// curve this is the classic bit interleaving of the anchor; for the Hilbert
// curve it is the Hilbert index produced by descending the tree with the
// orientation state machine.
//
// The index needs Dim·Level bits, so it is only defined for Level ≤ 64/Dim
// (21 in 3D, 32 in 2D); deeper keys panic. Ordering deeper keys never needs
// the index — use Rank, which is defined at every level.
func (c *Curve) Index(k Key) uint64 {
	if int(k.Level)*c.Dim > 64 {
		panic(fmt.Errorf("sfc: Index of level-%d key needs %d bits; use Rank instead",
			k.Level, int(k.Level)*c.Dim))
	}
	var idx uint64
	s := c.RootState()
	for t := 1; t <= int(k.Level); t++ {
		label := k.ChildLabel(t)
		pos := c.PosOf(s, label)
		idx = idx<<uint(c.Dim) | uint64(pos)
		s = c.Next(s, pos)
	}
	return idx
}

// KeyAtIndex inverts Index: it returns the key at the given level whose
// curve position is idx.
func (c *Curve) KeyAtIndex(idx uint64, level uint8) Key {
	k := RootKey
	s := c.RootState()
	for t := 1; t <= int(level); t++ {
		shift := uint(c.Dim) * uint(int(level)-t)
		pos := int(idx>>shift) & (c.nchild - 1)
		label := c.ChildAt(s, pos)
		k = k.Child(label)
		s = c.Next(s, pos)
	}
	return k
}

// Compare orders two keys along the curve. Regions are ordered by the curve
// position of their first descendant cell, with an ancestor preceding all of
// its descendants (pre-order). It returns -1, 0, or +1.
//
// Compare walks the tree one level at a time and is the reference order:
// the oracles check Rank against it, and code outside this package orders
// by Rank and searches by rank instead.
func (c *Curve) Compare(a, b Key) int {
	s := c.RootState()
	minL := int(a.Level)
	if int(b.Level) < minL {
		minL = int(b.Level)
	}
	for t := 1; t <= minL; t++ {
		ca := a.ChildLabel(t)
		cb := b.ChildLabel(t)
		if ca != cb {
			pa := c.PosOf(s, ca)
			pb := c.PosOf(s, cb)
			if pa < pb {
				return -1
			}
			return 1
		}
		s = c.Next(s, c.PosOf(s, ca))
	}
	switch {
	case a.Level < b.Level:
		return -1
	case a.Level > b.Level:
		return 1
	}
	return 0
}

// StateAt returns the orientation state of the subtree rooted at the given
// key, i.e. the state reached by descending from the root along the key's
// path. The root key yields RootState.
func (c *Curve) StateAt(k Key) State {
	s := c.RootState()
	for t := 1; t <= int(k.Level); t++ {
		s = c.Next(s, c.PosOf(s, k.ChildLabel(t)))
	}
	return s
}
