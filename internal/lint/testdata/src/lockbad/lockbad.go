// Package lockbad nests its mutexes in opposite orders: put takes mu then
// idxMu while scan takes idxMu then mu, flush-via-report does the same
// dance with a package-level mutex through a call edge, and the two
// package-level counters invert each other directly. Every acquisition
// that completes a cycle must be flagged.
package lockbad

import "sync"

var regMu sync.Mutex
var statsMu sync.Mutex
var logMu sync.Mutex

var registry = map[string]int{}
var counts = map[string]int{}

type store struct {
	mu    sync.Mutex
	idxMu sync.Mutex
	data  map[string]int
	index map[string][]string
}

func (s *store) put(k string, v int) {
	s.mu.Lock()
	s.idxMu.Lock() // want "acquiring store.idxMu while holding store.mu"
	s.data[k] = v
	s.index[k] = nil
	s.idxMu.Unlock()
	s.mu.Unlock()
}

func (s *store) scan() int {
	s.idxMu.Lock()
	s.mu.Lock() // want "acquiring store.mu while holding store.idxMu"
	n := len(s.data)
	s.mu.Unlock()
	s.idxMu.Unlock()
	return n
}

// register holds regMu and reaches store.mu through the flush call: the
// call edge regMu -> store.mu closes a cycle with direct below.
func (s *store) register(name string) {
	regMu.Lock()
	s.flush(name) // want "acquiring store.mu while holding regMu \(via call to flush\)"
	regMu.Unlock()
}

func (s *store) flush(name string) {
	s.mu.Lock()
	delete(s.data, name)
	delete(s.index, name)
	s.mu.Unlock()
}

// direct inverts register's order in the same package.
func (s *store) direct(name string) {
	s.mu.Lock()
	regMu.Lock() // want "acquiring regMu while holding store.mu"
	registry[name]++
	regMu.Unlock()
	s.mu.Unlock()
}

func bump(name string) {
	statsMu.Lock()
	logMu.Lock() // want "acquiring logMu while holding statsMu"
	counts[name]++
	logMu.Unlock()
	statsMu.Unlock()
}

func drain(name string) {
	logMu.Lock()
	statsMu.Lock() // want "acquiring statsMu while holding logMu"
	delete(counts, name)
	delete(registry, name)
	statsMu.Unlock()
	logMu.Unlock()
}

// pool and configMu are the worker-pool shape the rule was kept for: a
// region still running on a retired pool reads the active one under
// configMu while holding its own mu, and resize holds configMu while stop
// takes the retired pool's mu. No test interleaves the two.
var configMu sync.Mutex

var active *pool

type pool struct {
	mu      sync.Mutex
	stopped bool
	queued  int
}

func (p *pool) submit(t func()) {
	p.mu.Lock()
	if p.stopped {
		configMu.Lock() // want "acquiring configMu while holding pool.mu"
		next := active
		configMu.Unlock()
		p.mu.Unlock()
		next.submit(t)
		return
	}
	p.queued++
	p.mu.Unlock()
}

func (p *pool) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

func resize(next *pool) {
	configMu.Lock()
	old := active
	active = next
	old.stop() // want "acquiring pool.mu while holding configMu \(via call to stop\)"
	configMu.Unlock()
}
