// Package condbad breaks the condition-variable protocol four ways: an
// if-guarded Wait (spurious wakeups race), a bare for { Wait() } that
// never re-checks its predicate, a Wait with no Lock before it, and a
// Wait inside a closure that relies on a Lock outside the closure.
package condbad

import "sync"

type box struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready bool
	jobs  int
}

// ifWait checks the predicate once: a spurious wakeup (or a sibling waiter
// winning the race) leaves ready false with nobody re-checking.
func (b *box) ifWait() {
	b.mu.Lock()
	if !b.ready {
		b.cond.Wait() // want "sync.Cond.Wait outside a for loop"
	}
	b.mu.Unlock()
}

// spinWait loops but never re-tests anything: every wakeup is treated as
// the event.
func (b *box) spinWait() {
	b.mu.Lock()
	for {
		b.cond.Wait() // want "unconditional loop that never re-checks a predicate"
	}
}

// nakedWait never acquires cond.L: Wait will panic unlocking an unlocked
// mutex.
func (b *box) nakedWait() {
	for !b.ready {
		b.cond.Wait() // want "no Lock call before it in this function"
	}
}

// closureWait locks in the enclosing function but Waits inside a literal
// that runs elsewhere: the literal is its own scope and holds nothing.
func (b *box) closureWait() func() {
	b.mu.Lock()
	defer b.mu.Unlock()
	return func() {
		for b.jobs == 0 {
			b.cond.Wait() // want "no Lock call before it in this function"
		}
	}
}

// flight is the singleflight-follower shape the rule was kept for: one
// cond serves every pending entry, so a broadcast for another entry wakes
// this follower with its own entry still pending, and the if lets it go.
type flight struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[string]bool
}

func (f *flight) follow(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pending[key] {
		f.cond.Wait() // want "sync.Cond.Wait outside a for loop"
	}
	return !f.pending[key]
}
