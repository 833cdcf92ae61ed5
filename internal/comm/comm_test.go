package comm

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestAllreduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		Run(p, CostModel{}, func(c *Comm) {
			vals := []int64{int64(c.Rank()), 1, int64(2 * c.Rank())}
			got := Allreduce(c, vals, 8, SumI64)
			n := int64(c.Size())
			want := []int64{n * (n - 1) / 2, n, n * (n - 1)}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("p=%d rank=%d: Allreduce[%d]=%d want %d", p, c.Rank(), i, got[i], want[i])
				}
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	Run(5, CostModel{}, func(c *Comm) {
		got := AllreduceScalar(c, int64(c.Rank()*c.Rank()), 8, func(a, b int64) int64 { return max(a, b) })
		if got != 16 {
			t.Errorf("rank %d: max = %d, want 16", c.Rank(), got)
		}
	})
}

func TestAllgather(t *testing.T) {
	Run(4, CostModel{}, func(c *Comm) {
		local := make([]int64, c.Rank()) // rank r contributes r elements
		for i := range local {
			local[i] = int64(c.Rank()*100 + i)
		}
		got := Allgather(c, local, 8)
		if len(got) != 0+1+2+3 {
			t.Fatalf("rank %d: gathered %d elements, want 6", c.Rank(), len(got))
		}
		want := []int64{100, 200, 201, 300, 301, 302}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rank %d: got[%d]=%d want %d", c.Rank(), i, got[i], want[i])
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	for _, width := range []int{1, 3, 100} {
		Run(5, CostModel{}, func(c *Comm) {
			p := c.Size()
			send := make([][]int64, p)
			for dst := 0; dst < p; dst++ {
				// rank r sends dst copies of r*10+dst.
				for k := 0; k < dst; k++ {
					send[dst] = append(send[dst], int64(c.Rank()*10+dst))
				}
			}
			recv := Alltoallv(c, send, 8, AlltoallvOptions{StageWidth: width})
			for src := 0; src < p; src++ {
				if len(recv[src]) != c.Rank() {
					t.Errorf("width=%d rank=%d: got %d elements from %d, want %d",
						width, c.Rank(), len(recv[src]), src, c.Rank())
					continue
				}
				for _, v := range recv[src] {
					if v != int64(src*10+c.Rank()) {
						t.Errorf("width=%d rank=%d: bad value %d from %d", width, c.Rank(), v, src)
					}
				}
			}
		})
	}
}

func TestAlltoallvBufferOwnership(t *testing.T) {
	// Senders may reuse their buffers immediately after the call returns;
	// receivers must hold private copies.
	Run(3, CostModel{}, func(c *Comm) {
		send := make([][]int64, 3)
		for dst := range send {
			send[dst] = []int64{int64(c.Rank())}
		}
		recv := Alltoallv(c, send, 8, AlltoallvOptions{})
		for dst := range send {
			send[dst][0] = -999 // stomp
		}
		c.Barrier()
		for src := range recv {
			if recv[src][0] != int64(src) {
				t.Errorf("rank %d: recv from %d corrupted: %d", c.Rank(), src, recv[src][0])
			}
		}
	})
}

func TestVirtualClockAllreduce(t *testing.T) {
	model := CostModel{Tc: 1e-9, Ts: 1e-5, Tw: 1e-8}
	p := 8
	stats := Run(p, model, func(c *Comm) {
		_ = Allreduce(c, make([]int64, 100), 8, SumI64)
	})
	want := (model.Ts + model.Tw*800) * 3 // log2(8)=3
	if math.Abs(stats.Time()-want) > 1e-12 {
		t.Fatalf("modeled time %g, want %g", stats.Time(), want)
	}
}

func TestVirtualClockBSPMax(t *testing.T) {
	// The slowest rank determines when a collective completes.
	model := CostModel{Ts: 1e-5}
	stats := Run(4, model, func(c *Comm) {
		c.Elapse(float64(c.Rank())) // rank 3 is 3 seconds behind
		c.Barrier()
	})
	want := 3.0 + model.Ts*2 // log2(4)=2
	if math.Abs(stats.Time()-want) > 1e-12 {
		t.Fatalf("modeled time %g, want %g", stats.Time(), want)
	}
}

func TestPhaseAccounting(t *testing.T) {
	stats := Run(4, CostModel{Ts: 1}, func(c *Comm) {
		c.SetPhase("compute")
		c.Elapse(2)
		c.SetPhase("exchange")
		c.Barrier() // costs log2(4)*1 = 2 charged to "exchange"
	})
	if got := stats.Phase("compute"); math.Abs(got-2) > 1e-12 {
		t.Fatalf("compute phase %g, want 2", got)
	}
	if got := stats.Phase("exchange"); math.Abs(got-2) > 1e-12 {
		t.Fatalf("exchange phase %g, want 2", got)
	}
	if stats.Time() != 4 {
		t.Fatalf("total %g, want 4", stats.Time())
	}
}

func TestStagedCostLowerThanBurstMax(t *testing.T) {
	// With skewed sends, the staged exchange pays stage-local maxima while
	// the single burst pays the global per-rank maximum once; both are
	// computed and the staged exchange must charge at least as much latency.
	model := CostModel{Ts: 1e-4, Tw: 1e-9}
	cost := func(width int) float64 {
		stats := Run(8, model, func(c *Comm) {
			send := make([][]int64, 8)
			for dst := range send {
				if c.Rank() == 0 {
					send[dst] = make([]int64, 1000) // rank 0 is the hotspot
				} else {
					send[dst] = make([]int64, 10)
				}
			}
			_ = Alltoallv(c, send, 8, AlltoallvOptions{StageWidth: width})
		})
		return stats.Time()
	}
	staged, burst := cost(1), cost(7)
	if staged <= 0 || burst <= 0 {
		t.Fatal("costs must be positive")
	}
	// 7 stages of latency vs 1: staged pays more latency.
	if staged <= burst {
		t.Fatalf("staged cost %g should exceed burst cost %g under a latency-dominated model", staged, burst)
	}
}

func TestAlltoallvMessageCounts(t *testing.T) {
	stats := Run(4, CostModel{}, func(c *Comm) {
		send := make([][]int64, 4)
		for dst := range send {
			if dst != c.Rank() {
				send[dst] = []int64{1}
			}
		}
		_ = Alltoallv(c, send, 8, AlltoallvOptions{})
	})
	if got := stats.TotalMsgs(); got != 4*3 {
		t.Fatalf("total messages %d, want 12", got)
	}
	if got := stats.TotalBytes(); got != 4*3*8 {
		t.Fatalf("total bytes %d, want 96", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		model := CostModel{Tc: 1e-9, Ts: 1e-5, Tw: 1e-8}
		stats := Run(6, model, func(c *Comm) {
			c.Compute(int64(1000 * (c.Rank() + 1)))
			v := Allgather(c, []int64{int64(c.Rank())}, 8)
			_ = Allreduce(c, v, 8, SumI64)
			send := make([][]int64, 6)
			for dst := range send {
				send[dst] = make([]int64, c.Rank()+dst)
			}
			_ = Alltoallv(c, send, 8, AlltoallvOptions{StageWidth: 2})
		})
		return stats.Time(), stats.TotalBytes()
	}
	t1, b1 := run()
	for i := 0; i < 5; i++ {
		t2, b2 := run()
		if t1 != t2 || b1 != b2 {
			t.Fatalf("nondeterministic run: (%g,%d) vs (%g,%d)", t1, b1, t2, b2)
		}
	}
}

func TestRunPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run(0, ...) did not panic")
		}
	}()
	Run(0, CostModel{}, func(c *Comm) {})
}

// runPanic runs f under plain Run on its own goroutine and returns the value
// Run panicked with (nil if it returned), failing the test if Run does
// neither within the deadline.
func runPanic(t *testing.T, p int, f func(c *Comm)) any {
	t.Helper()
	ch := make(chan any, 1)
	go func() {
		defer func() { ch <- recover() }()
		Run(p, CostModel{}, f)
	}()
	select {
	case v := <-ch:
		return v
	case <-time.After(20 * time.Second):
		t.Fatal("Run hung: the world was not torn down")
		return nil
	}
}

// TestRunPanicsOnMismatch: ranks calling different collectives at the same
// step fail the world instead of deadlocking it.
func TestRunPanicsOnMismatch(t *testing.T) {
	v := runPanic(t, 3, func(c *Comm) {
		if c.Rank() == 1 {
			Allgather(c, []int64{1}, 8)
		} else {
			Allreduce(c, []int64{1}, 8, SumI64)
		}
	})
	me, ok := v.(*MismatchError)
	if !ok {
		t.Fatalf("want Run to panic with *MismatchError, got %T: %v", v, v)
	}
	if me.Step != 0 || me.Calls[1].Op != "allgather" {
		t.Errorf("mismatch misreported: %v", me)
	}
}

// TestRunPanicsWithRankFailure: a rank's panic reaches the caller's
// goroutine as a *RankFailure whose cause is the original value.
func TestRunPanicsWithRankFailure(t *testing.T) {
	boom := errors.New("boom")
	v := runPanic(t, 4, func(c *Comm) {
		c.Barrier()
		if c.Rank() == 2 {
			panic(boom)
		}
		c.Barrier()
	})
	rf, ok := v.(*RankFailure)
	if !ok {
		t.Fatalf("want Run to panic with *RankFailure, got %T: %v", v, v)
	}
	if rf.Rank != 2 || !errors.Is(rf, boom) {
		t.Errorf("want rank 2 failing with %v, got %v", boom, rf)
	}
}

// TestRunCountsCollectives: CollectiveIndex counts under Run as it does
// under RunChecked.
func TestRunCountsCollectives(t *testing.T) {
	const k = 5
	Run(3, CostModel{}, func(c *Comm) {
		for i := 0; i < k; i++ {
			if got := c.CollectiveIndex(); got != i {
				t.Errorf("rank %d: CollectiveIndex() = %d before collective %d", c.Rank(), got, i)
			}
			c.Barrier()
		}
		if got := c.CollectiveIndex(); got != k {
			t.Errorf("rank %d: CollectiveIndex() = %d after %d collectives", c.Rank(), got, k)
		}
	})
}

// TestRunStartsNoWatchdog: a body under Run may compute for longer than
// DefaultStallTimeout between collectives, so Run must disable the stall
// watchdog (and ask for nothing else).
func TestRunStartsNoWatchdog(t *testing.T) {
	trace := &Trace{}
	if got, want := runOptions(trace), (CheckedOptions{StallTimeout: -1, Trace: trace}); !reflect.DeepEqual(got, want) {
		t.Errorf("runOptions = %+v, want %+v", got, want)
	}
}
