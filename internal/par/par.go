// Package par is the repo's sanctioned intra-rank concurrency primitive: a
// process-wide work-stealing worker pool sized by GOMAXPROCS across *all*
// simulated ranks, so p ranks sharing the pool never oversubscribe the host
// the way p ranks × k private pools would.
//
// Everything par exposes is deterministic by construction. The chunk layout
// of For and ForChunks is a pure function of (n, grain) — never of the worker
// count or of scheduling — so disjoint chunk writes land in the same places
// and results are bit-identical run-to-run and across worker counts.
// Parallelism here changes host wall-clock only; the modeled machine
// (comm.Stats bytes, messages, virtual time) is charged exactly as before.
//
// The pool deliberately uses no channels: internal/comm is the only package
// allowed to move bytes between ranks, and the costaccounting lint rule
// enforces that. Scheduling state is a mutex, a condition variable, and two
// atomic counters.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// task is one unit of schedulable work: a helper invocation of a job.
type task func()

// pool is a work-stealing scheduler with workers-1 background goroutines.
// The caller of For/ForChunks is always the workers-th executor, so a
// pool with workers == 1 spawns no goroutines at all and every primitive
// degenerates to its serial loop.
type pool struct {
	workers int // total executors: the caller plus workers-1 goroutines

	mu      sync.Mutex
	cond    *sync.Cond // signaled when a task is queued or the pool stops
	deques  [][]task   // one deque per background worker; owner pops LIFO, thieves steal FIFO
	stopped bool

	rr atomic.Uint32 // round-robin submission cursor
}

func newPool(workers int) *pool {
	p := &pool{workers: workers}
	if workers > 1 {
		p.cond = sync.NewCond(&p.mu)
		p.deques = make([][]task, workers-1)
		for w := 0; w < workers-1; w++ {
			go p.worker(w)
		}
	}
	return p
}

// worker is the background executor loop: run own/stolen tasks until the
// pool is stopped.
func (p *pool) worker(self int) {
	p.mu.Lock()
	for {
		if p.stopped {
			p.mu.Unlock()
			return
		}
		if t := p.takeLocked(self); t != nil {
			p.mu.Unlock()
			t()
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
}

// takeLocked pops from self's deque tail (LIFO: freshest, cache-warm work)
// and otherwise steals from the other deques' heads (FIFO: oldest, largest
// remaining work first). Callers hold p.mu.
func (p *pool) takeLocked(self int) task {
	if d := p.deques[self]; len(d) > 0 {
		t := d[len(d)-1]
		p.deques[self] = d[:len(d)-1]
		return t
	}
	for i := 1; i < len(p.deques); i++ {
		v := (self + i) % len(p.deques)
		if d := p.deques[v]; len(d) > 0 {
			t := d[0]
			p.deques[v] = d[1:]
			return t
		}
	}
	return nil
}

// tryTake steals one task for an external helper (a caller spinning in a
// helping wait). Returns nil when every deque is empty.
func (p *pool) tryTake() task {
	if p.workers == 1 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for w := range p.deques {
		if d := p.deques[w]; len(d) > 0 {
			t := d[0]
			p.deques[w] = d[1:]
			return t
		}
	}
	return nil
}

// submit queues t on the next deque round-robin and wakes one worker.
func (p *pool) submit(t task) {
	w := int(p.rr.Add(1)) % len(p.deques)
	p.mu.Lock()
	p.deques[w] = append(p.deques[w], t)
	p.mu.Unlock()
	p.cond.Signal()
}

// stop shuts the background workers down. Queued helper tasks may be
// dropped; that is safe because helpers are optional accelerators — the job
// submitter claims and completes every chunk itself if nobody helps.
func (p *pool) stop() {
	if p.workers == 1 {
		return
	}
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// job is one parallel region: chunks claimed by atomic fetch-add, completion
// tracked by a second counter so the submitting goroutine can join with a
// helping wait instead of blocking (a blocked join could deadlock nested
// regions whose queued helpers never get a worker).
type job struct {
	chunks int64
	run    func(chunk int)
	next   atomic.Int64 // next chunk index to claim
	done   atomic.Int64 // chunks fully executed (including panicked ones)

	panicMu  sync.Mutex
	panicked bool
	panicVal any
}

// help claims and runs chunks until none remain. Safe to call from any
// goroutine, any number of times.
func (j *job) help() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		j.runChunk(int(c))
	}
}

// runChunk executes one chunk, capturing the first panic instead of letting
// it kill a pool worker. The done increment is registered first so it runs
// last: by the time the joiner observes done == chunks, any panic value is
// already recorded.
func (j *job) runChunk(c int) {
	defer j.done.Add(1)
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if !j.panicked {
				j.panicked, j.panicVal = true, r
			}
			j.panicMu.Unlock()
		}
	}()
	j.run(c)
}

// do runs chunks 0..nc-1 of run across the pool and the calling goroutine,
// returning when all chunks have completed. A chunk panic is re-raised on
// the caller's goroutine (with the original panic value, so the comm checked
// runtime's rank-failure recovery still classifies it), not on a worker.
func (p *pool) do(nc int, run func(chunk int)) {
	j := &job{chunks: int64(nc), run: run}
	helpers := p.workers - 1
	if helpers > nc-1 {
		helpers = nc - 1
	}
	for h := 0; h < helpers; h++ {
		p.submit(j.help)
	}
	j.help()
	// Helping wait: until every claimed chunk has finished, execute other
	// queued work (possibly chunks of a nested region) instead of blocking.
	for j.done.Load() < j.chunks {
		if t := p.tryTake(); t != nil {
			t()
		} else {
			runtime.Gosched()
		}
	}
	if j.panicked {
		panic(j.panicVal)
	}
}

// active is the process-wide pool. Reads are a single atomic load so the
// serial fast path of every primitive costs nothing measurable.
var (
	active   atomic.Pointer[pool]
	configMu sync.Mutex // serializes SetWorkers and first-use initialization
)

func currentPool() *pool {
	if p := active.Load(); p != nil {
		return p
	}
	configMu.Lock()
	defer configMu.Unlock()
	if p := active.Load(); p != nil {
		return p
	}
	p := newPool(runtime.GOMAXPROCS(0))
	active.Store(p)
	return p
}

// Workers returns the current pool width: the number of goroutines
// (including the caller of a parallel region) that execute chunks.
func Workers() int { return currentPool().workers }

// SetWorkers resizes the pool to n executors and returns the previous width.
// n == 1 forces every primitive onto its serial path. Regions already in
// flight keep the pool they started on; new regions use the new pool.
// Results never depend on n — only wall-clock does.
func SetWorkers(n int) int {
	if n < 1 {
		panic(fmt.Errorf("par: SetWorkers(%d): need at least one worker", n))
	}
	configMu.Lock()
	defer configMu.Unlock()
	old := active.Load()
	prev := runtime.GOMAXPROCS(0)
	if old != nil {
		prev = old.workers
	}
	if old != nil && old.workers == n {
		return prev
	}
	active.Store(newPool(n))
	if old != nil {
		old.stop()
	}
	return prev
}

// NumChunks returns the number of chunks For and ForChunks split n items
// into at the given grain: ceil(n / max(grain, 1)). The layout is a pure
// function of (n, grain) so callers can pre-size per-chunk accumulators.
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// chunkBounds returns the half-open index range of chunk c.
func chunkBounds(c, n, grain int) (lo, hi int) {
	lo = c * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}

// For runs body over [0, n) split into NumChunks(n, grain) contiguous
// chunks. Chunks are claimed dynamically by the caller and idle pool
// workers, so body must only write state owned by its index range; the
// chunk boundaries themselves depend only on (n, grain), never on the
// worker count or scheduling.
func For(n, grain int, body func(lo, hi int)) {
	ForChunks(n, grain, func(_, lo, hi int) { body(lo, hi) })
}

// ForChunks is For with the chunk index exposed, for bodies that accumulate
// into per-chunk slots (the building block of deterministic reductions).
func ForChunks(n, grain int, body func(chunk, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	nc := NumChunks(n, grain)
	if nc == 0 {
		return
	}
	p := currentPool()
	if nc == 1 || p.workers == 1 {
		for c := 0; c < nc; c++ {
			lo, hi := chunkBounds(c, n, grain)
			body(c, lo, hi)
		}
		return
	}
	p.do(nc, func(c int) {
		lo, hi := chunkBounds(c, n, grain)
		body(c, lo, hi)
	})
}
