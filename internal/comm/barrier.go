package comm

import "sync"

// barrier is a reusable synchronization barrier for a fixed number of
// goroutines. It is poisonable: once any rank fails, poison wakes every
// waiter and makes every subsequent wait unwind with a worldAbort panic
// instead of blocking forever, and depart detects collectives that can never
// complete because a rank already returned.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	p     int
	count int
	gen   uint64

	poisoned bool
	departed []int // ranks that returned from the body

	// failf records a world failure and poisons this barrier; like
	// abandoned it is installed by inprocTransport.Bind before any rank runs.
	failf func(err error)
	// abandoned builds the AbandonedError for a collective that can never
	// complete; waiter is the stuck rank, or -1 when the departing rank
	// detected stranded waiters without knowing who they are.
	abandoned func(waiter int, departed []int) error
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all p goroutines have called wait for the current
// generation. In a poisoned world it panics with worldAbort so the caller
// unwinds; if a rank has departed the world the barrier can never fill, so
// the waiter records the failure and unwinds likewise.
func (b *barrier) wait(rank int) {
	b.mu.Lock()
	if b.poisoned {
		b.mu.Unlock()
		panic(worldAbort{})
	}
	if len(b.departed) > 0 {
		departed := append([]int(nil), b.departed...)
		b.mu.Unlock()
		b.failf(b.abandoned(rank, departed)) // poisons this barrier
		panic(worldAbort{})
	}
	gen := b.gen
	b.count++
	if b.count == b.p {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait()
	}
	poisoned := b.poisoned && gen == b.gen // released by poison, not by the barrier filling
	b.mu.Unlock()
	if poisoned {
		panic(worldAbort{})
	}
}

// poison wakes every waiter and makes every future wait unwind. Idempotent.
func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// depart records that a rank returned from the world body. If other ranks
// are currently mid-wait, the barrier can never fill again: that is a
// collective-count mismatch, reported through failf.
func (b *barrier) depart(rank int) {
	b.mu.Lock()
	if b.poisoned {
		b.mu.Unlock()
		return
	}
	b.departed = append(b.departed, rank)
	stranded := b.count > 0
	departed := append([]int(nil), b.departed...)
	b.mu.Unlock()
	if stranded {
		b.failf(b.abandoned(-1, departed))
	}
}

// generation returns the barrier's completed-step counter, a progress
// signal for the watchdog.
func (b *barrier) generation() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gen
}
