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
// The pool deliberately uses no channels: bytes move between ranks only
// through internal/comm, which charges them to Stats. Scheduling state is
// a mutex, a condition variable, and per region a job whose chunks are
// claimed by compare-and-swap. Jobs are recycled and the deques keep
// their capacity, so a region allocates nothing once the pool is warm.
package par

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// helper is one queued invitation to help a region: the job and the
// generation of the region it was queued for. Once that region has finished
// its job may be recycled to a later region, and the helper then does
// nothing.
type helper struct {
	j   *job
	gen uint32
}

// pool is a work-stealing scheduler with workers-1 background goroutines.
// The caller of For/ForChunks is always the workers-th executor, so a
// pool with workers == 1 spawns no goroutines at all and every primitive
// degenerates to its serial loop.
type pool struct {
	workers int // total executors: the caller plus workers-1 goroutines

	mu      sync.Mutex
	cond    *sync.Cond // signaled when a helper is queued or the pool stops
	deques  [][]helper // one deque per background worker; owner pops LIFO, thieves steal FIFO
	free    []*job     // finished jobs, reused by later regions
	rr      int        // round-robin submission cursor
	stopped bool
}

func newPool(workers int) *pool {
	p := &pool{workers: workers}
	if workers > 1 {
		p.cond = sync.NewCond(&p.mu)
		p.deques = make([][]helper, workers-1)
		for w := 0; w < workers-1; w++ {
			go p.worker(w)
		}
	}
	return p
}

// worker is the background executor loop: run own/stolen helpers until the
// pool is stopped.
func (p *pool) worker(self int) {
	p.mu.Lock()
	for {
		if p.stopped {
			p.mu.Unlock()
			return
		}
		if h, ok := p.takeLocked(self); ok {
			p.mu.Unlock()
			h.j.help(h.gen)
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
}

// takeLocked pops from self's deque tail (LIFO: freshest, cache-warm work)
// and otherwise steals from the other deques' heads (FIFO: oldest, largest
// remaining work first). Callers hold p.mu.
func (p *pool) takeLocked(self int) (helper, bool) {
	if d := p.deques[self]; len(d) > 0 {
		p.deques[self] = d[:len(d)-1]
		return d[len(d)-1], true
	}
	for i := 1; i < len(p.deques); i++ {
		if h, ok := p.stealLocked((self + i) % len(p.deques)); ok {
			return h, true
		}
	}
	return helper{}, false
}

// stealLocked takes the head of deque w. The rest shift down in place, so
// the deque keeps its capacity and a warm pool queues without allocating;
// a deque holds a handful of helpers. Callers hold p.mu.
func (p *pool) stealLocked(w int) (helper, bool) {
	d := p.deques[w]
	if len(d) == 0 {
		return helper{}, false
	}
	h := d[0]
	p.deques[w] = d[:copy(d, d[1:])]
	return h, true
}

// tryTake steals one helper for a caller spinning in a helping wait.
func (p *pool) tryTake() (helper, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for w := range p.deques {
		if h, ok := p.stealLocked(w); ok {
			return h, true
		}
	}
	return helper{}, false
}

// stop shuts the background workers down. Queued helpers may be dropped;
// that is safe because helpers are optional accelerators — the region's
// caller claims and completes every chunk itself if nobody helps.
func (p *pool) stop() {
	if p.workers == 1 {
		return
	}
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// closedChunk is the claim index of a job between regions: at or past any
// region's chunk count, so nothing can be claimed.
const closedChunk = math.MaxUint32

// cacheLine is the padding that keeps a job's two hot counters off each
// other's cache line and off the region's read-mostly fields.
const cacheLine = 64

// maxFreeJobs bounds the pool's free list of finished jobs: one per region
// that can be in flight at once (nested or concurrent), with room to spare.
const maxFreeJobs = 64

// job is one parallel region, recycled through the pool's free list.
// state packs the region's generation (high 32 bits) with the next chunk to
// claim (low 32 bits), and a chunk is claimed by a compare-and-swap of the
// whole word, so a helper queued for an earlier region of the same job
// claims nothing. Completion is a second counter, so the submitting
// goroutine can join with a helping wait instead of blocking (a blocked
// join could deadlock nested regions whose queued helpers never get a
// worker). Every claim writes state and every chunk writes done, so each
// has a cache line of its own: sharing one, they made a region of 32 chunks
// of about 1 µs take 1.5× as long on a 2-core host.
type job struct {
	state  atomic.Uint64
	_      [cacheLine - 8]byte
	done   atomic.Int64 // chunks fully executed (including panicked ones)
	_      [cacheLine - 8]byte
	chunks atomic.Int64 // read by stale helpers while the next region is set up

	// The region, written before state opens it and read only by a helper
	// that has claimed one of its chunks.
	n, grain int
	body     func(chunk, lo, hi int)

	panicMu  sync.Mutex
	panicked bool
	panicVal any
}

// start opens the job for a region of nc chunks and returns its
// generation. It first moves state to the new generation with nothing
// claimable, which retires every helper still queued for the last region,
// and only then rewrites the region.
func (j *job) start(n, grain, nc int, body func(chunk, lo, hi int)) uint32 {
	gen := uint32(j.state.Load()>>32) + 1
	j.state.Store(uint64(gen)<<32 | closedChunk)
	j.n, j.grain, j.body = n, grain, body
	j.chunks.Store(int64(nc))
	j.done.Store(0)
	j.panicked, j.panicVal = false, nil
	j.state.Store(uint64(gen) << 32)
	return gen
}

// help claims and runs chunks of region gen until none remain. Safe to
// call from any goroutine, any number of times, and after the region ends.
func (j *job) help(gen uint32) {
	for {
		s := j.state.Load()
		c := int64(uint32(s))
		if uint32(s>>32) != gen || c >= j.chunks.Load() {
			return
		}
		if j.state.CompareAndSwap(s, s+1) {
			j.runChunk(int(c))
		}
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
	lo, hi := chunkBounds(c, j.n, j.grain)
	j.body(c, lo, hi)
}

// do runs the nc chunks of body over [0, n) across the pool and the calling
// goroutine, returning when all chunks have completed. A chunk panic is
// re-raised on the caller's goroutine (with the original panic value, so
// the comm checked runtime's rank-failure recovery still classifies it),
// not on a worker.
//
//alloc:zero once the free list holds a job; the deques keep their capacity.
func (p *pool) do(n, grain, nc int, body func(chunk, lo, hi int)) {
	helpers := min(p.workers-1, nc-1)
	p.mu.Lock()
	var j *job
	if k := len(p.free); k > 0 {
		j, p.free = p.free[k-1], p.free[:k-1]
	} else {
		j = new(job) //lint:ignore alloczero free list empty: the first region, or more regions in flight than ever before
	}
	gen := j.start(n, grain, nc, body)
	for h := 0; h < helpers; h++ {
		p.rr = (p.rr + 1) % len(p.deques)
		p.deques[p.rr] = append(p.deques[p.rr], helper{j, gen})
	}
	p.mu.Unlock()
	for h := 0; h < helpers; h++ {
		p.cond.Signal()
	}
	j.help(gen)
	// Helping wait: until every claimed chunk has finished, execute other
	// queued helpers (possibly of a nested region) instead of blocking.
	for j.done.Load() < int64(nc) {
		if h, ok := p.tryTake(); ok {
			h.j.help(h.gen)
		} else {
			runtime.Gosched()
		}
	}
	panicked, val := j.panicked, j.panicVal
	j.body, j.panicVal = nil, nil
	p.mu.Lock()
	if len(p.free) < maxFreeJobs {
		p.free = append(p.free, j)
	}
	p.mu.Unlock()
	if panicked {
		panic(val)
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
// A region allocates nothing once the pool is warm, so a caller that passes
// a func value it built once (a method value bound at construction, say)
// runs allocation-free; For's adapter closure is the caller's one
// allocation.
//
//alloc:zero once the pool is warm (see do).
func ForChunks(n, grain int, body func(chunk, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	nc := NumChunks(n, grain)
	if nc == 0 {
		return
	}
	p := currentPool()
	if nc == 1 || p.workers == 1 || int64(nc) >= closedChunk {
		for c := 0; c < nc; c++ {
			lo, hi := chunkBounds(c, n, grain)
			body(c, lo, hi)
		}
		return
	}
	p.do(n, grain, nc, body)
}
