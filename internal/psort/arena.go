package psort

import (
	"sync"

	"optipart/internal/sfc"
)

// Arena is the struct-of-arrays working set of a TreeSort: the key column,
// the linearized-rank column, and a scratch pair of the same shape for the
// radix distribution passes. Splitting the old 32-byte keyRank record into
// two parallel columns keeps the digit-counting passes on a dense stream of
// ranks (16 bytes per element instead of a 32-byte stride) while the keys
// move only during scatters.
//
// An Arena is reused across sorts: the service layer keeps one per request
// slot so the steady-state cache-hit path allocates nothing, and the plain
// TreeSort entry point draws arenas from a process-wide pool. Growth is
// bounded — Trim releases any column that one outsized sort inflated past
// MaxArenaKeys, so an arena (pooled or per-request) can never pin more than
// its eight 16-byte columns at the cap, about 64 MiB, for the process
// lifetime.
//
// Two more rank columns, lo and hi, ride along for the partitioner: each
// element's neighbour span, the lowest and highest same-size
// face-neighbour rank, or a box around it that the first Algorithm 2 scan
// to need it refines in place (partition's scanCounts). A sort never
// touches them.
//
// An Arena is not safe for concurrent use; the parallel sort paths share it
// only through the disjoint chunk writes of internal/par.
type Arena struct {
	keys         []sfc.Key
	ranks        []sfc.Rank128
	kAlt         []sfc.Key
	rAlt         []sfc.Rank128
	lo, hi       []sfc.Rank128
	loAlt, hiAlt []sfc.Rank128
}

// MaxArenaKeys caps the per-column capacity an Arena retains after Trim:
// 2^19 elements × 16 B per column, 8 MiB a column and 64 MiB across all
// eight. The key and rank pair alone keep the 16 MiB bound the retired
// pair pool enforced (maxPooledPairs). A sort larger than this
// still works — the columns grow for its duration — but Trim hands the
// oversized backing arrays to the collector instead of pinning them.
const MaxArenaKeys = 1 << 19

// growCap is the capacity a column gets when it must grow to hold n:
// 25% headroom, so a mesh that creeps a few percent per timestep (the AMR
// steady state) does not reallocate the alternating column pairs on every
// other step. The headroom stops at MaxArenaKeys for any n within it, so
// Trim keeps every column sized for a bounded sort; past the bound,
// MaxArenaKeys-n wraps to a huge uint and the full quarter applies. The
// one expression keeps the column accessors inlinable.
func growCap(n int) int { return n + int(min(uint(n/4), uint(MaxArenaKeys-n))) }

// grow ensures every column holds at least n elements. The columns are
// checked individually: SwapAlt exchanges primary and scratch pairs, so
// their capacities can diverge across uses of one arena.
func (a *Arena) grow(n int) {
	a.ranks = growRank(a.ranks, n)
	a.rAlt = growRank(a.rAlt, n)
	if cap(a.kAlt) < n {
		a.kAlt = make([]sfc.Key, growCap(n))
	}
	a.kAlt = a.kAlt[:n]
}

// growRank resizes one rank column to n, reallocating with headroom only
// when its capacity falls short.
func growRank(col []sfc.Rank128, n int) []sfc.Rank128 {
	if cap(col) < n {
		return make([]sfc.Rank128, growCap(n))[:n]
	}
	return col[:n]
}

// growKeys ensures the arena-owned key column holds at least n elements
// (callers that sort their own slice never touch it).
func (a *Arena) growKeys(n int) {
	if cap(a.keys) < n {
		a.keys = make([]sfc.Key, 0, growCap(n))
	}
	a.keys = a.keys[:n]
}

// Keys returns the arena-owned key column resized to n, for callers that
// copy a request in before canonicalizing it. The contents are undefined.
//
//alloc:zero once the column is warm; growth is the first-use cold path.
func (a *Arena) Keys(n int) []sfc.Key {
	a.growKeys(n) //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	return a.keys
}

// Columns returns the arena-owned key and rank columns, both resized to n
// and aligned index-for-index. This is the persistent element store of the
// incremental repartitioner: keys[i] and ranks[i] describe one element, and
// both survive across timesteps so warm starts reuse the cached ranks. The
// contents beyond the previous length are undefined.
//
//alloc:zero once the columns are warm; growth is the first-use cold path.
func (a *Arena) Columns(n int) ([]sfc.Key, []sfc.Rank128) {
	a.growKeys(n)                  //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	a.ranks = growRank(a.ranks, n) //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	return a.keys, a.ranks
}

// Ranks returns the rank column alone resized to n, for a caller that ranks
// keys it holds itself. The contents are undefined.
func (a *Arena) Ranks(n int) []sfc.Rank128 {
	a.ranks = growRank(a.ranks, n)
	return a.ranks
}

// Spans returns the lo and hi columns resized to n, aligned with the
// element columns. The contents beyond the previous length are undefined.
//
//alloc:zero once the columns are warm; growth is the first-use cold path.
func (a *Arena) Spans(n int) (lo, hi []sfc.Rank128) {
	a.lo = growRank(a.lo, n) //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	a.hi = growRank(a.hi, n) //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	return a.lo, a.hi
}

// AltColumns returns the scratch key and rank columns resized to n. A
// refine/coarsen step merges the surviving elements into the scratch pair,
// then adopts it with SwapAlt — the double-buffering that lets unchanged
// elements keep their cached ranks without any in-place shifting.
//
//alloc:zero once the columns are warm; growth is the first-use cold path.
func (a *Arena) AltColumns(n int) ([]sfc.Key, []sfc.Rank128) {
	if cap(a.kAlt) < n {
		a.kAlt = make([]sfc.Key, growCap(n)) //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	}
	a.kAlt = a.kAlt[:n]
	a.rAlt = growRank(a.rAlt, n) //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	return a.kAlt, a.rAlt
}

// AltSpans is AltColumns for the lo and hi columns: their scratch pair,
// resized to n, which SwapAlt adopts together with the element columns.
//
//alloc:zero once the columns are warm; growth is the first-use cold path.
func (a *Arena) AltSpans(n int) (lo, hi []sfc.Rank128) {
	a.loAlt = growRank(a.loAlt, n) //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	a.hiAlt = growRank(a.hiAlt, n) //alloc:escape column growth runs once per size high-water mark; a warm arena reslices
	return a.loAlt, a.hiAlt
}

// SwapAlt exchanges the primary and scratch columns, making the merge
// output written through AltColumns and AltSpans the new element store.
//
//alloc:zero
func (a *Arena) SwapAlt() {
	a.keys, a.kAlt = a.kAlt, a.keys
	a.ranks, a.rAlt = a.rAlt, a.ranks
	a.lo, a.loAlt = a.loAlt, a.lo
	a.hi, a.hiAlt = a.hiAlt, a.hi
}

// Trim releases any column that grew past MaxArenaKeys. Call it when a sort
// (or a service request) finishes: bounded columns are kept warm for the
// next use, outsized ones go to the collector.
//
//alloc:zero
func (a *Arena) Trim() {
	a.keys, a.kAlt = trimmed(a.keys), trimmed(a.kAlt)
	a.ranks, a.rAlt = trimmed(a.ranks), trimmed(a.rAlt)
	a.lo, a.hi = trimmed(a.lo), trimmed(a.hi)
	a.loAlt, a.hiAlt = trimmed(a.loAlt), trimmed(a.hiAlt)
}

// trimmed returns col, or nil when col's capacity exceeds MaxArenaKeys.
func trimmed[T any](col []T) []T {
	if cap(col) > MaxArenaKeys {
		return nil
	}
	return col
}

// arenaPool recycles arenas across plain TreeSort calls and partitioning
// calls. Partitioning campaigns sort on every rank of every trial; pooling
// keeps the steady-state allocation count at zero. PutArena trims first, so
// the pool inherits the same oversized-buffer bound the old pair pool had.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena draws an arena from the process-wide pool. Its columns hold
// whatever the previous user left; return it with PutArena once nothing
// references them.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena trims a and returns it to the pool.
func PutArena(a *Arena) {
	a.Trim()
	arenaPool.Put(a)
}
