// Package net is a fixture standing in for the real internal/net package:
// its synthetic import path ends in internal/net, so nondeterminism must
// stay silent on the wall-clock reads, goroutines, and map-order
// accumulation below — a real wire transport exists to move bytes and
// measure real time. The exemption is rule logic, not a //lint:ignore
// directive.
package net

import (
	"sync"
	"time"
)

type monitor struct {
	mu       sync.Mutex
	lastSeen map[int]time.Time
	timeout  time.Duration
}

// expired sweeps the peer table in map order — fine here, the caller sorts.
func (m *monitor) expired() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	var dead []int
	for rank, seen := range m.lastSeen {
		if now.Sub(seen) >= m.timeout {
			dead = append(dead, rank)
		}
	}
	return dead
}

type link struct {
	frames chan []byte
	stop   chan struct{}
}

func dial() *link {
	l := &link{
		frames: make(chan []byte, 8),
		stop:   make(chan struct{}),
	}
	go l.reader()
	return l
}

func (l *link) reader() {
	for {
		select {
		case f := <-l.frames:
			_ = f
		case <-l.stop:
			return
		}
	}
}

func (l *link) send(f []byte) {
	deadline := time.Now().Add(time.Second)
	_ = deadline
	l.frames <- f
}
