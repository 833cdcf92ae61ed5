package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
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
