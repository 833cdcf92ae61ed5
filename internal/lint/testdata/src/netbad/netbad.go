// Package netbad performs the same wall-clock reads, goroutine spawns, and
// map-order accumulation as the internal/net fixture, but under an ordinary
// library path: every marked construct here must be flagged, proving the
// internal/net exemption is scoped to that path and does not leak to the
// rest of the library.
package netbad

import (
	"sync"
	"time"
)

type watcher struct {
	mu       sync.Mutex
	lastSeen map[int]time.Time
}

func (w *watcher) sweep(timeout time.Duration) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now() // want "time.Now reads the wall clock"
	var dead []int
	for rank, seen := range w.lastSeen {
		if now.Sub(seen) >= timeout {
			dead = append(dead, rank) // want "append in range over map collects in random key order"
		}
	}
	return dead
}

func pump(frames [][]byte, send func([]byte)) {
	go func() { // want "goroutine outside the comm runtime"
		for _, f := range frames {
			send(f)
		}
	}()
}
