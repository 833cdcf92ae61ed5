package stale

// Sum keeps a waiver on a line that no longer allocates.
//
//alloc:zero
func Sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x //lint:ignore alloczero the buffer this line once grew is gone
	}
	return n
}
