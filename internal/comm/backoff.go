package comm

import (
	"time"

	"optipart/internal/par"
)

// Backoff is the one exponential retry schedule of the real processes: the
// wire transport's reconnect loop and the supervisor's respawn budget.
// Attempt k (0-based) waits Base·2^k, capped at Max, stretched by up to 25%
// by a jitter drawn from the seed and attempt number alone. Determinism
// makes backoff schedules assertable in unit tests — same seed, same
// delays — while still decorrelating real fleets, which each seed from
// their rank.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Jitter int64 // seed; 0 means no jitter
}

// Delay returns the wait before attempt k (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter != 0 {
		h := par.SplitMix64(uint64(b.Jitter) + uint64(attempt)*0x9e3779b97f4a7c15)
		frac := float64(h>>11) / float64(1<<53) // uniform [0, 1)
		d += time.Duration(frac * 0.25 * float64(d))
	}
	return d
}
