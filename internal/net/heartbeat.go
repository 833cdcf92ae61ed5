package net

import (
	"slices"
	"sync"
	"time"
)

// Heartbeat failure detection. The root pings every worker each
// HeartbeatInterval; any frame from a worker (pong, deposit, done) counts
// as life. A worker that stays silent past HeartbeatTimeout is declared
// dead and the world fails with a structured comm.RankFailure — that is
// the detection path recovery-by-repartition hangs off when a worker
// process is killed.
//
// The monitor itself is pure bookkeeping over an injectable clock: the
// goroutine that drives it in production feeds time.Now, unit tests feed
// hand-advanced instants and assert exactly when a peer crosses the
// threshold. No test ever sleeps.

// Monitor tracks last-heard-from times for a set of peers and reports the
// ones that have been silent too long.
type Monitor struct {
	timeout time.Duration

	mu       sync.Mutex
	lastSeen map[int]time.Time
	dead     map[int]bool
}

// NewMonitor builds a monitor declaring peers dead after timeout of
// silence. Peers become visible at their first Touch.
func NewMonitor(timeout time.Duration) *Monitor {
	return &Monitor{
		timeout:  timeout,
		lastSeen: make(map[int]time.Time),
		dead:     make(map[int]bool),
	}
}

// Touch records life from peer rank at instant now.
func (m *Monitor) Touch(rank int, now time.Time) {
	m.mu.Lock()
	if !m.dead[rank] {
		m.lastSeen[rank] = now
	}
	m.mu.Unlock()
}

// Forget stops tracking a peer (it departed cleanly).
func (m *Monitor) Forget(rank int) {
	m.mu.Lock()
	delete(m.lastSeen, rank)
	delete(m.dead, rank)
	m.mu.Unlock()
}

// Expired returns, in ascending rank order, the peers whose silence has
// crossed the timeout as of now. Each peer is reported exactly once: after
// being reported it is marked dead and a later Touch does not resurrect it.
func (m *Monitor) Expired(now time.Time) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for rank, seen := range m.lastSeen {
		if !m.dead[rank] && now.Sub(seen) >= m.timeout {
			out = append(out, rank)
		}
	}
	for _, rank := range out {
		m.dead[rank] = true
		delete(m.lastSeen, rank)
	}
	slices.Sort(out)
	return out
}

// Revive clears a rank's dead mark so a replacement incarnation can be
// monitored again. The rank re-enters liveness tracking at its next Touch;
// until then it cannot re-expire.
func (m *Monitor) Revive(rank int) {
	m.mu.Lock()
	delete(m.dead, rank)
	delete(m.lastSeen, rank)
	m.mu.Unlock()
}

// Dead reports whether rank has been declared dead.
func (m *Monitor) Dead(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead[rank]
}
