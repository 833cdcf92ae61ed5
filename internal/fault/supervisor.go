package fault

import (
	"sync"
	"time"

	"optipart/internal/comm"
)

// RespawnBudget is the supervisor's throttle: it decides whether a dead
// rank may be respawned and how long to back off first. Each rank gets
// MaxRespawns attempts inside a sliding Window; attempt k waits Base·2^k
// (capped at Max) before the replacement is launched, so a crash-looping
// worker burns its budget slowly instead of hot-spinning the node. When the
// window has passed with no further deaths the rank's budget replenishes —
// a worker that dies once an hour is not the same animal as one that dies
// five times a minute.
//
// The budget is pure bookkeeping over injected instants: production feeds
// time.Now, tests feed hand-advanced clocks and assert the exact schedule.
type RespawnBudget struct {
	// MaxRespawns caps attempts per rank within Window; <= 0 means 3.
	MaxRespawns int
	// Base and Max bound the exponential pre-respawn backoff; <= 0 means
	// 100ms and 5s.
	Base time.Duration
	Max  time.Duration
	// Window is how far back attempts count against the budget; <= 0 means
	// attempts never expire.
	Window time.Duration

	mu       sync.Mutex
	attempts map[int][]time.Time
}

func (b *RespawnBudget) maxRespawns() int {
	if b.MaxRespawns <= 0 {
		return 3
	}
	return b.MaxRespawns
}

func (b *RespawnBudget) backoff() comm.Backoff {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	return comm.Backoff{Base: base, Max: max}
}

// Next charges one respawn attempt for rank at instant now. It returns the
// backoff to wait before launching the replacement and ok=true, or ok=false
// when the rank has exhausted its budget within the window — the signal to
// stop healing and let the world fail over to the Degrade path.
func (b *RespawnBudget) Next(rank int, now time.Time) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.attempts == nil {
		b.attempts = make(map[int][]time.Time)
	}
	live := b.attempts[rank][:0]
	for _, at := range b.attempts[rank] {
		if b.Window <= 0 || now.Sub(at) < b.Window {
			live = append(live, at)
		}
	}
	if len(live) >= b.maxRespawns() {
		b.attempts[rank] = live
		return 0, false
	}
	delay := b.backoff().Delay(len(live))
	b.attempts[rank] = append(live, now)
	return delay, true
}
