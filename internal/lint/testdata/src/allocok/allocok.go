package allocok

type Ring struct {
	buf  []int
	next int
}

// At reads a slot.
//
//alloc:zero
func (r *Ring) At(i int) int { return r.buf[i%len(r.buf)] }

// Grow doubles the ring; its one allocation carries a trailing waiver.
//
//alloc:zero steady state reuses buf; doubling is the cold path.
func (r *Ring) Grow() {
	if r.next < len(r.buf) {
		r.next++
		return
	}
	b := make([]int, 2*len(r.buf)+1) //lint:ignore alloczero doubling runs O(log n) times over the ring's life
	copy(b, r.buf)
	r.buf = b
}

// Reset reallocates under a standalone waiver, which covers the next line.
//
//alloc:zero
func (r *Ring) Reset(n int) {
	//lint:ignore alloczero a reset sizes the ring once, before the steady state
	r.buf = make([]int, n)
	r.next = 0
}
