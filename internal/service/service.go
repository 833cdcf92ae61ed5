// Package service turns the partitioner into a long-lived facility:
// concurrent partitioning campaigns submit requests to one Service, which
// canonicalizes each octree, memoizes results by content hash, coalesces
// concurrent identical requests into a single computation (singleflight),
// and admits cache misses to a fixed number of execution slots in arrival
// order.
//
// The request path is built to allocate nothing in the steady state when it
// hits the cache. A request whose keys are already canonical (an AMR client
// that keeps its mesh in curve order) is digested as sent and served without
// ranking a key: its as-sent digest is the canonical digest, and an
// element-wise match against the cached copy proves the input canonical.
// Any other request has its keys copied into a per-request psort.Arena
// drawn from a bounded freelist, sorted with TreeSortArena (the arena owns
// every working column), linearized in place, digested inline, and looked
// up under a value-typed 128-bit key. Either way the cached response is
// returned by pointer and the LRU touch is two pointer swaps on an
// intrusive list. Digest collisions cannot corrupt results: every lookup
// verifies the canonical octree element-wise against the cached copy
// (octree.SoA) before trusting the entry.
package service

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("service: closed")

// Request describes one partitioning job. Keys may arrive in any order and
// may contain duplicates and ancestor/descendant pairs; the service
// canonicalizes them (sort along the curve, linearize) before hashing, so
// two requests for the same octree are the same request no matter how the
// caller happened to order or pad the key stream. Keys already in canonical
// form (curve-sorted, linear) hit the cache without being ranked.
type Request struct {
	Keys []sfc.Key

	CurveKind sfc.Kind
	Dim       int // 2 or 3

	Ranks int            // number of partitions p
	Mode  partition.Mode // EqualWork, FlexibleTolerance, or ModelDriven
	Tol   float64        // FlexibleTolerance slack, fraction of N/p; ignored in the other modes

	Machine      machine.Machine
	Alpha        float64 // 0 means machine.DefaultAlpha
	PayloadBytes int     // 0 means machine.GhostPayloadBytes
}

// Response is a computed (or cached) partition. Cached responses are shared
// between callers and must be treated as immutable.
type Response struct {
	// Splitters define the partition (separator octants).
	Splitters *partition.Splitters
	// Counts[r] is the number of canonical octants assigned to rank r — the
	// placement the splitters induce on the canonicalized octree.
	Counts []int
	// NumKeys is the canonical octree size (after dedup/linearization).
	NumKeys int

	Quality     partition.Quality
	Predicted   float64
	Rounds      int
	AchievedTol float64
}

// Metrics is a snapshot of the service counters.
type Metrics struct {
	Requests   uint64 // total Do calls that passed validation
	Hits       uint64 // served from cache
	Coalesced  uint64 // waited on an in-flight identical request
	Misses     uint64 // computed (leader of a singleflight group)
	Collisions uint64 // digest matched but octree differed; computed uncached
	Evictions  uint64 // entries evicted by the key-count bound

	CachedEntries int // current cache population
	CachedKeys    int // current total canonical keys held by the cache
}

// Config sizes a Service.
type Config struct {
	// Slots is the number of concurrent partition computations admitted,
	// in arrival order (cache hits bypass admission). 0 means 2.
	Slots int
	// MaxCachedKeys bounds the cache by total canonical keys across
	// entries; the least-recently-used entries are evicted past it. An
	// octree larger than the bound is computed but not cached. 0 means
	// 1<<22 (≈64 MiB of key columns).
	MaxCachedKeys int
}

// entry is one cache slot: the canonical octree (for exact verification),
// the response, and the intrusive LRU links. An entry is created in the
// pending state by the singleflight leader; followers wait on the service
// cond until done.
type entry struct {
	digest digest128
	keys   octree.SoA
	resp   Response
	err    error
	done   bool

	inLRU      bool
	nkeys      int
	prev, next *entry
}

// Service is the long-lived partitioning facility. Safe for concurrent use.
// One mutex guards everything below it, and one cond serves both the
// singleflight followers and the requests waiting for an execution slot.
type Service struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond

	// Admission: a miss takes the next ticket and runs once fewer than
	// Slots earlier tickets are unreleased.
	tickets  uint64
	released uint64

	entries    map[digest128]*entry
	lruHead    *entry // most recently used
	lruTail    *entry // least recently used
	cachedKeys int

	arenas []*psort.Arena

	metrics Metrics
	closed  bool
}

// New builds a Service. Close it when done to release parked waiters.
func New(cfg Config) *Service {
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.MaxCachedKeys <= 0 {
		cfg.MaxCachedKeys = 1 << 22
	}
	s := &Service{
		cfg:     cfg,
		entries: map[digest128]*entry{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Close fails all parked waiters and future requests. In-flight
// computations finish normally.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Metrics returns a snapshot of the counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.CachedEntries = len(s.entries)
	m.CachedKeys = s.cachedKeys
	return m
}

// Do serves the request from the cache when possible (hit=true, zero
// allocations in the steady state), and otherwise computes the partition
// in an execution slot and caches the result. Canonical input hits on the
// digest of its keys as sent, without ranking them; any other input is
// canonicalized first. The returned Response is shared: callers must not
// mutate it.
//
// The cache-hit path allocates nothing: every allocation of a miss lives in
// lead (the pending entry) or below admitAndCompute (the computation
// itself).
//
//alloc:zero the cache-hit path
func (s *Service) Do(req Request) (resp *Response, hit bool, err error) {
	if err := validate(&req); err != nil {
		return nil, false, err
	}
	if req.Mode != partition.FlexibleTolerance {
		req.Tol = 0 // unread, so requests differing only in Tol share an entry
	}

	// Canonical input digests as sent to its canonical digest. The cached
	// keys are canonical, so a match proves the input was, and the answer is
	// the one the canonicalizing path below would return. Anything else —
	// a miss, a pending entry, a closed service, permuted or padded input,
	// a collision — falls through to that path.
	d := digestRequest(&req, req.Keys)
	s.mu.Lock()
	if e, ok := s.entries[d]; ok && !s.closed && e.done && e.err == nil && e.keys.EqualKeys(req.Keys) {
		s.metrics.Requests++
		r := s.hitLocked(e, false)
		s.mu.Unlock()
		return r, true, nil
	}
	s.mu.Unlock()

	// Keys equal to a cached canonical octree are valid; everything else is
	// checked before it reaches the curve.
	if err := validateKeys(&req); err != nil {
		return nil, false, err
	}
	a := s.getArena()
	canon, ranks, curve := canonicalize(&req, a)
	d = digestRequest(&req, canon)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.putArena(a)
		return nil, false, ErrClosed
	}
	s.metrics.Requests++

	e, ok := s.entries[d]
	if !ok {
		// Singleflight leader: lead publishes the pending entry (a miss's
		// one heap allocation), computes, fills it and releases s.mu.
		return s.lead(d, req, curve, canon, ranks, a)
	}
	waited := false
	if !e.done {
		// Singleflight follower: an identical request is in flight.
		waited = true
		for !e.done && !s.closed {
			s.cond.Wait()
		}
		if !e.done {
			s.mu.Unlock()
			s.putArena(a)
			return nil, false, ErrClosed
		}
	}
	if e.err != nil {
		err := e.err
		s.mu.Unlock()
		s.putArena(a)
		return nil, false, err
	}
	if e.keys.EqualKeys(canon) {
		r := s.hitLocked(e, waited)
		s.putArenaLocked(a)
		s.mu.Unlock()
		return r, true, nil
	}
	// Same digest, different octree: a genuine 128-bit collision.
	// Compute uncached so neither request corrupts the other.
	s.metrics.Collisions++
	s.mu.Unlock()
	r, cerr := s.admitAndCompute(req, curve, canon, ranks)
	s.putArena(a)
	return r, false, cerr
}

// hitLocked serves a done, verified entry: it touches the LRU, counts a hit
// (or a coalesced wait on an in-flight leader), and returns the shared
// response. Called with s.mu held.
//
//alloc:zero
func (s *Service) hitLocked(e *entry, waited bool) *Response {
	if e.inLRU {
		s.lruTouch(e)
	}
	if waited {
		s.metrics.Coalesced++
	} else {
		s.metrics.Hits++
	}
	return &e.resp
}

// lead is the singleflight-leader slow path: it publishes a pending entry
// under the caller's critical section (so concurrent identical requests
// become followers, not second leaders), releases the lock, computes in an
// execution slot, and fills the entry. Called with s.mu held; returns with
// it released.
func (s *Service) lead(d digest128, req Request, curve *sfc.Curve, canon []sfc.Key, ranks []sfc.Rank128, a *psort.Arena) (*Response, bool, error) {
	e := &entry{digest: d}
	s.entries[d] = e
	s.metrics.Misses++
	s.mu.Unlock()

	r, cerr := s.admitAndCompute(req, curve, canon, ranks)

	s.mu.Lock()
	e.err = cerr
	if cerr == nil {
		e.resp = *r
		e.keys.AppendKeys(canon)
		e.nkeys = len(canon)
	}
	e.done = true
	if cerr != nil || e.nkeys > s.cfg.MaxCachedKeys {
		// Errors are not cached; an octree larger than the whole cache
		// bound is served but not retained. Followers already holding the
		// entry pointer still read its result.
		delete(s.entries, d)
	} else {
		s.lruInsert(e)
		s.cachedKeys += e.nkeys
		s.evictLocked(e)
	}
	s.putArenaLocked(a)
	s.mu.Unlock()
	s.cond.Broadcast()

	if cerr != nil {
		return nil, false, cerr
	}
	return &e.resp, false, nil
}

// maxRanks bounds Request.Ranks. A miss runs a world of Ranks goroutines
// whose exchange buffers grow with Ranks², so one request for a million
// ranks would exhaust the host's memory. At 1024 ranks a miss of a few
// thousand keys peaks near 0.8 GB, which two slots can afford.
const maxRanks = 1024

func validate(req *Request) error {
	if len(req.Keys) == 0 {
		return errors.New("service: empty key set")
	}
	if req.Dim != 2 && req.Dim != 3 {
		return fmt.Errorf("service: dim %d not in {2, 3}", req.Dim)
	}
	// CurveKind and Mode arrive as wire ints: an unknown kind would reach
	// sfc.NewCurve and panic.
	if req.CurveKind != sfc.Morton && req.CurveKind != sfc.Hilbert {
		return fmt.Errorf("service: unknown curve kind %v", req.CurveKind)
	}
	switch req.Mode {
	case partition.EqualWork, partition.FlexibleTolerance, partition.ModelDriven:
	default:
		return fmt.Errorf("service: unknown mode %v", req.Mode)
	}
	if req.Ranks < 1 || req.Ranks > maxRanks {
		return fmt.Errorf("service: ranks %d not in [1, %d]", req.Ranks, maxRanks)
	}
	// The model inputs: a NaN Alpha makes every rung's Tp NaN, and a
	// negative payload rewards boundary surface.
	if !(req.Tol >= 0 && req.Tol <= math.MaxFloat64) {
		return fmt.Errorf("service: tol %g is not finite and >= 0", req.Tol)
	}
	if !(req.Alpha >= 0 && req.Alpha <= math.MaxFloat64) {
		return fmt.Errorf("service: alpha %g is not finite and >= 0", req.Alpha)
	}
	if req.PayloadBytes < 0 {
		return fmt.Errorf("service: payload bytes %d < 0", req.PayloadBytes)
	}
	return nil
}

// validateKeys checks every key against the request's dimension. It runs
// after the canonical fast path and before canonicalize.
func validateKeys(req *Request) error {
	// Keys arrive from outside the process (ServeConn): an out-of-range
	// level or anchor would otherwise reach the curve's shifts and panic.
	for i, k := range req.Keys {
		if !k.Valid(req.Dim) {
			return fmt.Errorf("service: key %d (%v) is not a valid dim-%d octant", i, k, req.Dim)
		}
	}
	return nil
}

// canonicalize copies the request keys into the arena, sorts them along the
// curve, and strips duplicates and ancestors — the canonical linear octree
// that content-addresses the request — together with its rank column,
// compacted in step with the keys, which a miss's world partitions without
// ranking a key again. Both live in a. Allocation-free once the arena is
// warm; sfc.NewCurve memoizes the curve. A bigger octree than the arena has
// seen allocates once and is waived below.
//
//alloc:zero warm-path contract
func canonicalize(req *Request, a *psort.Arena) ([]sfc.Key, []sfc.Rank128, *sfc.Curve) {
	curve := sfc.NewCurve(req.CurveKind, req.Dim)
	keys := a.Keys(len(req.Keys)) //lint:ignore alloczero arena column growth is a once-per-high-water-mark cold path; warm arenas reslice
	copy(keys, req.Keys)
	ranks, _ := psort.TreeSortArena(curve, keys, a)
	keys, ranks = octree.LinearizeSortedRanks(keys, ranks)
	return keys, ranks, curve
}

// admitAndCompute runs the partitioning world in an execution slot. The
// contract covers its own lines only: the partitioning world below compute
// allocates freely, but admission itself must not.
//
//alloc:zero admission only
func (s *Service) admitAndCompute(req Request, curve *sfc.Curve, canon []sfc.Key, ranks []sfc.Rank128) (*Response, error) {
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.release()
	return compute(req, curve, canon, ranks)
}

// admit waits for one of the Config.Slots execution slots. Requests are
// admitted in arrival order: each takes the next ticket and waits while
// Slots earlier tickets are still unreleased. A request waiting when the
// service closes, or arriving after, gets ErrClosed; slots already granted
// stay valid and are released as usual.
//
//alloc:zero
func (s *Service) admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tickets
	s.tickets++
	for t >= s.released+uint64(s.cfg.Slots) && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// release frees the slot admit granted and wakes the waiters, the oldest
// of which takes it.
//
//alloc:zero
func (s *Service) release() {
	s.mu.Lock()
	s.released++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// compute runs one p-rank SPMD partitioning world over the canonical
// octree and its rank column. Each rank takes an equal contiguous block of
// the (already curve-sorted) canonical keys and the matching block of
// ranks; blocks are disjoint subslices, so the world partitions in place
// without copying, sorting or ranking (partition.PartitionSorted).
func compute(req Request, curve *sfc.Curve, canon []sfc.Key, ranks []sfc.Rank128) (*Response, error) {
	p := req.Ranks
	var resp Response
	opts := partition.Options{
		Curve:        curve,
		Mode:         req.Mode,
		Tol:          req.Tol,
		Machine:      req.Machine,
		Alpha:        req.Alpha,
		PayloadBytes: req.PayloadBytes,
		SkipExchange: true,
	}
	_, err := comm.RunChecked(p, req.Machine.CostModel(), func(c *comm.Comm) error {
		lo := len(canon) * c.Rank() / p
		hi := len(canon) * (c.Rank() + 1) / p
		res := partition.PartitionSorted(c, canon[lo:hi], ranks[lo:hi], opts)
		if c.Rank() == 0 {
			resp = Response{
				Splitters:   res.Splitters,
				Quality:     res.Quality,
				Predicted:   res.Predicted,
				Rounds:      res.Rounds,
				AchievedTol: res.AchievedTol,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ranges := resp.Splitters.Ranges(canon)
	resp.Counts = make([]int, p)
	for r := 0; r < p; r++ {
		resp.Counts[r] = ranges[r+1] - ranges[r]
	}
	resp.NumKeys = len(canon)
	return &resp, nil
}

// lruInsert places e at the head (most recently used).
//
//alloc:zero
func (s *Service) lruInsert(e *entry) {
	e.inLRU = true
	e.prev = nil
	e.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = e
	}
	s.lruHead = e
	if s.lruTail == nil {
		s.lruTail = e
	}
}

// lruRemove unlinks e.
//
//alloc:zero
func (s *Service) lruRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
	e.inLRU = false
}

// lruTouch moves e to the head. Zero allocations: two pointer splices.
//
//alloc:zero
func (s *Service) lruTouch(e *entry) {
	if s.lruHead == e {
		return
	}
	s.lruRemove(e)
	s.lruInsert(e)
}

// evictLocked drops least-recently-used entries until the cache fits the
// key bound again, never evicting keep (the entry just inserted).
//
//alloc:zero
func (s *Service) evictLocked(keep *entry) {
	for s.cachedKeys > s.cfg.MaxCachedKeys && s.lruTail != nil && s.lruTail != keep {
		victim := s.lruTail
		s.lruRemove(victim)
		s.cachedKeys -= victim.nkeys
		s.metrics.Evictions++
		delete(s.entries, victim.digest)
	}
}

// getArena pops a warm arena from the freelist or builds a fresh one. In the
// steady state the freelist is sized to the slot count (Slots+2), so the
// fresh-arena fallback below runs only at startup (waived).
//
//alloc:zero steady state
func (s *Service) getArena() *psort.Arena {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.arenas); n > 0 {
		a := s.arenas[n-1]
		s.arenas = s.arenas[:n-1]
		return a
	}
	return new(psort.Arena) //lint:ignore alloczero freelist empty: startup, or more concurrent requests than Slots+2
}

// putArena returns an arena to the freelist, trimming oversized columns so
// one huge request cannot pin memory; past Slots+2 arenas it is dropped.
//
//alloc:zero
func (s *Service) putArena(a *psort.Arena) {
	s.mu.Lock()
	s.putArenaLocked(a)
	s.mu.Unlock()
}

//alloc:zero the freelist append reuses capacity after the first few puts.
func (s *Service) putArenaLocked(a *psort.Arena) {
	a.Trim()
	if len(s.arenas) < s.cfg.Slots+2 {
		s.arenas = append(s.arenas, a)
	}
}
