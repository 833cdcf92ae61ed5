package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// workerCounts is the ISSUE's matrix: serial, two, an odd prime, and
// whatever the host offers.
func workerCounts() []int {
	counts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// atWorkers runs f under a pool of w executors, restoring the prior width.
func atWorkers(t testing.TB, w int, f func()) {
	t.Helper()
	prev := SetWorkers(w)
	defer SetWorkers(prev)
	f()
}

func TestNumChunks(t *testing.T) {
	cases := []struct{ n, grain, want int }{
		{0, 10, 0}, {-5, 10, 0}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2},
		{100, 1, 100}, {7, 0, 7}, {7, -3, 7}, {19, 4, 5},
	}
	for _, c := range cases {
		if got := NumChunks(c.n, c.grain); got != c.want {
			t.Errorf("NumChunks(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
}

// TestForCoversEachIndexOnce: every index in [0, n) is visited exactly once,
// at every worker count, including the empty and single-element edges.
func TestForCoversEachIndexOnce(t *testing.T) {
	sizes := []int{0, 1, 2, 63, 64, 65, 1000}
	for _, w := range workerCounts() {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("workers=%d/n=%d", w, n), func(t *testing.T) {
				atWorkers(t, w, func() {
					hits := make([]int32, n)
					For(n, 64, func(lo, hi int) {
						if lo < 0 || hi > n || lo > hi {
							t.Errorf("bad chunk [%d, %d) for n=%d", lo, hi, n)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Fatalf("index %d visited %d times", i, h)
						}
					}
				})
			})
		}
	}
}

// TestForChunksLayoutFixed: the (chunk, lo, hi) triples are a pure function
// of (n, grain) — identical at every worker count.
func TestForChunksLayoutFixed(t *testing.T) {
	const n, grain = 1003, 37
	nc := NumChunks(n, grain)
	layout := func(w int) []int {
		bounds := make([]int, 2*nc)
		atWorkers(t, w, func() {
			ForChunks(n, grain, func(c, lo, hi int) {
				bounds[2*c] = lo
				bounds[2*c+1] = hi
			})
		})
		return bounds
	}
	want := layout(1)
	for _, w := range workerCounts()[1:] {
		got := layout(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: chunk layout drifted at slot %d: got %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestSetWorkersRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("SetWorkers(%d) did not panic", n)
				}
				if _, ok := r.(error); !ok {
					t.Fatalf("panic value %v (%T) is not an error", r, r)
				}
			}()
			SetWorkers(n)
		}()
	}
}

func TestSetWorkersRoundTrip(t *testing.T) {
	orig := Workers()
	prev := SetWorkers(3)
	if prev != orig {
		t.Errorf("SetWorkers returned prev=%d, want %d", prev, orig)
	}
	if Workers() != 3 {
		t.Errorf("Workers() = %d after SetWorkers(3)", Workers())
	}
	if back := SetWorkers(orig); back != 3 {
		t.Errorf("restoring returned prev=%d, want 3", back)
	}
}

// TestPanicPropagatesToCaller: a panic in a chunk body must surface on the
// goroutine that invoked For — with the original panic value — not crash a
// pool worker.
func TestPanicPropagatesToCaller(t *testing.T) {
	sentinel := fmt.Errorf("par test: chunk 13 exploded")
	for _, w := range workerCounts() {
		atWorkers(t, w, func() {
			defer func() {
				if r := recover(); r != sentinel {
					t.Errorf("workers=%d: recovered %v, want sentinel error", w, r)
				}
			}()
			For(1000, 10, func(lo, hi int) {
				if lo <= 130 && 130 < hi {
					panic(sentinel)
				}
			})
			t.Errorf("workers=%d: For returned instead of panicking", w)
		})
	}
}

// TestNestedForCompletes: a parallel region launched from inside a chunk
// body must not deadlock the pool (the joiner helps instead of blocking).
func TestNestedForCompletes(t *testing.T) {
	for _, w := range workerCounts() {
		atWorkers(t, w, func() {
			var total atomic.Int64
			For(8, 1, func(lo, hi int) {
				For(100, 7, func(ilo, ihi int) {
					total.Add(int64(ihi - ilo))
				})
			})
			if got := total.Load(); got != 800 {
				t.Errorf("workers=%d: nested For visited %d indices, want 800", w, got)
			}
		})
	}
}

// TestConcurrentRegions: many goroutines (standing in for simulated ranks)
// share one pool without interference. Spawning test goroutines directly is
// fine here — this package is the sanctioned concurrency layer under test.
func TestConcurrentRegions(t *testing.T) {
	atWorkers(t, 4, func() {
		const ranks = 8
		results := make([]int64, ranks)
		done := make(chan int, ranks)
		for r := 0; r < ranks; r++ {
			go func(r int) {
				partial := make([]int64, NumChunks(10000, 100))
				ForChunks(10000, 100, func(chunk, lo, hi int) {
					for i := lo; i < hi; i++ {
						partial[chunk] += int64(i)
					}
				})
				for _, s := range partial {
					results[r] += s
				}
				done <- r
			}(r)
		}
		for i := 0; i < ranks; i++ {
			<-done
		}
		const want = 10000 * 9999 / 2
		for r, got := range results {
			if got != want {
				t.Errorf("rank %d: sum = %d, want %d", r, got, want)
			}
		}
	})
}

// TestForChunksZeroAlloc: once the pool is warm, a region whose body is a
// func value built beforehand allocates nothing.
func TestForChunksZeroAlloc(t *testing.T) {
	atWorkers(t, 2, func() {
		sums := make([]int64, NumChunks(1000, 10))
		body := func(c, lo, hi int) { sums[c] += int64(hi - lo) }
		ForChunks(1000, 10, body)
		if allocs := testing.AllocsPerRun(100, func() { ForChunks(1000, 10, body) }); allocs != 0 {
			t.Fatalf("warm ForChunks allocated %.1f times per region, want 0", allocs)
		}
	})
}

// TestStaleHelperClaimsNothing: a region reuses the finished job of the
// previous one while that region's helper is still queued. The stale
// helper must claim no chunk of the new region, and every index still runs
// exactly once. The pool has no background worker, so the queue holds
// exactly what the regions leave there.
func TestStaleHelperClaimsNothing(t *testing.T) {
	p := &pool{workers: 2, deques: make([][]helper, 1)}
	p.cond = sync.NewCond(&p.mu)
	const n = 8
	var hits [n]int
	p.do(n, 1, n, func(c, _, _ int) { hits[c]++ })

	inStale := false
	var stale, fresh helper
	p.do(n, 1, n, func(c, _, _ int) {
		if inStale {
			t.Errorf("the previous region's helper claimed chunk %d", c)
		}
		hits[c]++
		if c != 0 {
			return
		}
		var ok bool
		if stale, ok = p.tryTake(); !ok {
			t.Fatal("the first region left no helper queued")
		}
		if fresh, ok = p.tryTake(); !ok {
			t.Fatal("the second region queued no helper")
		}
		inStale = true
		stale.j.help(stale.gen)
		inStale = false
		fresh.j.help(fresh.gen)
	})
	if stale.j != fresh.j || stale.gen == fresh.gen {
		t.Fatalf("the second region did not reuse the first one's job under a new generation")
	}
	for c, h := range hits {
		if h != 2 {
			t.Errorf("chunk %d ran %d times over two regions, want 2", c, h)
		}
	}
}

// settleGoroutines fails t unless runtime.NumGoroutine falls back to base
// within two seconds: every goroutine started since base was read has
// returned.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, want at most %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSetWorkersReleasesWorkers: a pool that SetWorkers retires stops its
// background workers. Shrinking back to one executor, which spawns no
// worker, returns the process to the goroutine count it had before the
// wide pool ran a region.
func TestSetWorkersReleasesWorkers(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	base := runtime.NumGoroutine()
	SetWorkers(4)
	var total atomic.Int64
	For(1000, 10, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 1000 {
		t.Fatalf("For visited %d indices, want 1000", total.Load())
	}
	SetWorkers(1)
	settleGoroutines(t, base)
}

// TestSetWorkersDuringRegions resizes the pool over and over while other
// goroutines keep running regions on whichever pool is active. SetWorkers
// holds configMu while it stops the retired pool, which takes that pool's
// mu, so a region that took configMu under its pool's mu would deadlock
// against it. Every region must finish, and finish right. The width is
// restored only once they have: after a deadlock, SetWorkers would block.
func TestSetWorkersDuringRegions(t *testing.T) {
	prev := SetWorkers(2)
	const regions, resizes = 2, 2000
	var stop atomic.Bool
	errs := make(chan error, regions)
	for r := 0; r < regions; r++ {
		go func() {
			var err error
			for !stop.Load() {
				var total atomic.Int64
				For(64, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
				if got := total.Load(); got != 64 && err == nil {
					err = fmt.Errorf("a region visited %d indices, want 64", got)
				}
			}
			errs <- err
		}()
	}
	resized := make(chan struct{})
	go func() {
		defer close(resized)
		for i := 0; i < resizes; i++ {
			SetWorkers(2 + i%2)
		}
	}()
	deadline := time.After(3 * time.Second)
	select {
	case <-resized:
	case <-deadline:
		t.Fatalf("SetWorkers did not finish %d resizes against running regions: deadlock", resizes)
	}
	stop.Store(true)
	for r := 0; r < regions; r++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			t.Fatal("a region did not return after the resizes stopped: deadlock")
		}
	}
	SetWorkers(prev)
}
