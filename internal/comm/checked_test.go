package comm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// runCheckedTimed fails the test if the checked run does not return within
// the deadline — the point of the whole subsystem is that nothing hangs.
func runCheckedTimed(t *testing.T, p int, opts CheckedOptions, f func(c *Comm) error) (*Stats, error) {
	t.Helper()
	type result struct {
		st  *Stats
		err error
	}
	ch := make(chan result, 1)
	go func() {
		st, err := RunCheckedOpts(p, CostModel{}, opts, f)
		ch <- result{st, err}
	}()
	select {
	case r := <-ch:
		return r.st, r.err
	case <-time.After(20 * time.Second):
		t.Fatal("checked run hung: the world was not torn down")
		return nil, nil
	}
}

// collectiveCalls exercises every collective once; used to drive the
// table-driven poisoning tests. Each entry calls its op on the given comm.
var collectiveCalls = []struct {
	op   string
	call func(c *Comm)
}{
	{"allreduce", func(c *Comm) { Allreduce(c, []int64{1, 2}, 8, SumI64) }},
	{"allgather", func(c *Comm) { Allgather(c, []int64{int64(c.Rank())}, 8) }},
	{"barrier", func(c *Comm) { c.Barrier() }},
	{"alltoallv", func(c *Comm) {
		send := make([][]int64, c.Size())
		for dst := range send {
			send[dst] = []int64{int64(c.Rank())}
		}
		Alltoallv(c, send, 8, AlltoallvOptions{})
	}},
}

// TestPoisonEveryCollective kills one rank just before each collective in
// turn; under the old runtime every case deadlocks with the survivors stuck
// in barrier.wait. The checked runtime must unblock everyone and name the
// failed rank, op, and phase.
func TestPoisonEveryCollective(t *testing.T) {
	const p = 5
	for _, tc := range collectiveCalls {
		tc := tc
		t.Run(tc.op, func(t *testing.T) {
			_, err := runCheckedTimed(t, p, CheckedOptions{}, func(c *Comm) error {
				c.SetPhase("doomed")
				if c.Rank() == 2 {
					panic(fmt.Sprintf("rank 2 dies before %s", tc.op))
				}
				tc.call(c)
				return nil
			})
			var rf *RankFailure
			if !errors.As(err, &rf) {
				t.Fatalf("want *RankFailure, got %v", err)
			}
			if rf.Rank != 2 {
				t.Fatalf("failed rank = %d, want 2", rf.Rank)
			}
			if rf.Phase != "doomed" {
				t.Fatalf("phase = %q, want doomed", rf.Phase)
			}
			// Rank 2 died before entering any collective.
			if rf.Op != "" || rf.Collective != -1 {
				t.Fatalf("op/collective = %q/%d, want \"\"/-1", rf.Op, rf.Collective)
			}
		})
	}
}

// TestPoisonMidCollective kills a rank via the BeforeCollective hook, i.e.
// while the survivors are already inside the same collective; the failure
// must name the op the rank was entering.
func TestPoisonMidCollective(t *testing.T) {
	const p = 4
	for _, tc := range collectiveCalls {
		tc := tc
		t.Run(tc.op, func(t *testing.T) {
			opts := CheckedOptions{Hooks: Hooks{
				BeforeCollective: func(rank int, op string, seq int) {
					if rank == 1 && seq == 1 {
						panic(errors.New("injected death"))
					}
				},
			}}
			_, err := runCheckedTimed(t, p, opts, func(c *Comm) error {
				c.Barrier() // collective 0 completes everywhere
				c.SetPhase("work")
				tc.call(c) // rank 1 dies entering collective 1
				return nil
			})
			var rf *RankFailure
			if !errors.As(err, &rf) {
				t.Fatalf("want *RankFailure, got %v", err)
			}
			if rf.Rank != 1 || rf.Op != tc.op || rf.Collective != 1 {
				t.Fatalf("got rank=%d op=%q coll=%d, want 1/%q/1", rf.Rank, rf.Op, rf.Collective, tc.op)
			}
			if rf.Phase != "work" {
				t.Fatalf("phase = %q, want work", rf.Phase)
			}
		})
	}
}

func TestRankErrorReturn(t *testing.T) {
	boom := errors.New("checkpoint corrupt")
	_, err := runCheckedTimed(t, 6, CheckedOptions{}, func(c *Comm) error {
		c.Barrier()
		if c.Rank() == 4 {
			return boom
		}
		c.Barrier()
		return nil
	})
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("want *RankFailure, got %v", err)
	}
	if rf.Rank != 4 || !errors.Is(err, boom) {
		t.Fatalf("got %v, want rank 4 wrapping %v", err, boom)
	}
}

func TestMismatchedCollectives(t *testing.T) {
	_, err := runCheckedTimed(t, 3, CheckedOptions{}, func(c *Comm) error {
		if c.Rank() == 1 {
			Allgather(c, []int64{1}, 8)
		} else {
			Allreduce(c, []int64{1}, 8, SumI64)
		}
		return nil
	})
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError, got %v", err)
	}
	if me.Step != 0 || len(me.Calls) != 3 {
		t.Fatalf("step=%d calls=%d, want 0/3", me.Step, len(me.Calls))
	}
	ops := map[int]string{}
	for _, call := range me.Calls {
		ops[call.Rank] = call.Op
	}
	if ops[0] != "allreduce" || ops[1] != "allgather" || ops[2] != "allreduce" {
		t.Fatalf("call map wrong: %v", ops)
	}
}

func TestMismatchedElemSize(t *testing.T) {
	_, err := runCheckedTimed(t, 2, CheckedOptions{}, func(c *Comm) error {
		if c.Rank() == 0 {
			Allgather(c, []int64{1}, 8)
		} else {
			Allgather(c, []int64{1}, 4)
		}
		return nil
	})
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError, got %v", err)
	}
}

func TestEarlyExitAbandonsCollective(t *testing.T) {
	_, err := runCheckedTimed(t, 4, CheckedOptions{}, func(c *Comm) error {
		c.Barrier()
		if c.Rank() == 3 {
			return nil // returns one collective early
		}
		c.Barrier()
		return nil
	})
	var ae *AbandonedError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbandonedError, got %v", err)
	}
	if len(ae.Departed) == 0 || ae.Departed[0] != 3 {
		t.Fatalf("departed = %v, want [3]", ae.Departed)
	}
}

// TestArrivalAfterDepartureAbandons reaches the other half of the abandoned
// check: here the early rank has already departed when the others arrive
// at the barrier, so the arriving waiter reports it, not the departure.
func TestArrivalAfterDepartureAbandons(t *testing.T) {
	left := make(chan struct{})
	st, err := runCheckedTimed(t, 4, CheckedOptions{}, func(c *Comm) error {
		c.Barrier()
		if c.Rank() == 3 {
			close(left)
			return nil
		}
		<-left
		time.Sleep(50 * time.Millisecond) // rank 3's departure follows its return
		c.Barrier()
		return nil
	})
	var ae *AbandonedError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbandonedError, got %v", err)
	}
	if st == nil {
		t.Fatal("no stats: a rank never unwound, so the run was abandoned after the grace period")
	}
	if ae.Waiter < 0 || len(ae.Departed) != 1 || ae.Departed[0] != 3 {
		t.Fatalf("waiter %d, departed %v: want an arriving waiter blaming [3]", ae.Waiter, ae.Departed)
	}
}

func TestWatchdogReportsStuckRanks(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, err := runCheckedTimed(t, 3, CheckedOptions{StallTimeout: 150 * time.Millisecond}, func(c *Comm) error {
		c.SetPhase("halo")
		c.Barrier()
		if c.Rank() == 1 {
			<-block // wedged outside the runtime: only the watchdog can see this
		}
		c.Barrier()
		return nil
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %v", err)
	}
	found := false
	for _, st := range se.Stuck {
		if st.Rank == 1 {
			found = true
			if st.Phase != "halo" {
				t.Fatalf("stuck rank 1 phase = %q, want halo", st.Phase)
			}
			if st.Op != "barrier" {
				t.Fatalf("stuck rank 1 op = %q, want barrier", st.Op)
			}
		}
	}
	if !found {
		t.Fatalf("rank 1 not reported stuck: %v", se.Stuck)
	}
}

func TestCheckedBadP(t *testing.T) {
	_, err := RunChecked(0, CostModel{}, func(c *Comm) error { return nil })
	var ue *UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UsageError, got %v", err)
	}
}

func TestCheckedAllreduceLengthMismatch(t *testing.T) {
	_, err := runCheckedTimed(t, 3, CheckedOptions{}, func(c *Comm) error {
		Allreduce(c, make([]int64, 1+c.Rank()), 8, SumI64)
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("want wrapped *UsageError, got %v", err)
	}
	var rf *RankFailure
	if !errors.As(err, &rf) || rf.Op != "allreduce" {
		t.Fatalf("mismatch not attributed to allreduce: %v", err)
	}
}

func TestCheckedAlltoallvBadSend(t *testing.T) {
	_, err := runCheckedTimed(t, 3, CheckedOptions{}, func(c *Comm) error {
		Alltoallv(c, make([][]int64, 2), 8, AlltoallvOptions{}) // want 3 slices
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("want wrapped *UsageError, got %v", err)
	}
}

// TestCheckedMatchesUnchecked: Run and RunChecked (watchdog off and on)
// report bit-identical stats — clocks, phase times, bytes, messages.
func TestCheckedMatchesUnchecked(t *testing.T) {
	model := CostModel{Tc: 1e-9, Ts: 1e-5, Tw: 1e-8}
	body := func(c *Comm) {
		c.SetPhase("compute")
		c.Compute(int64(1000 * (c.Rank() + 1)))
		c.SetPhase("exchange")
		v := Allgather(c, []int64{int64(c.Rank())}, 8)
		_ = Allreduce(c, v, 8, SumI64)
		send := make([][]int64, c.Size())
		for dst := range send {
			send[dst] = make([]int64, c.Rank()+dst)
		}
		_ = Alltoallv(c, send, 8, AlltoallvOptions{StageWidth: 2})
		c.Barrier()
	}
	plain := Run(6, model, body)
	checked, err := RunChecked(6, model, func(c *Comm) error { body(c); return nil })
	if err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Fatalf("RunChecked stats differ from Run:\nRun        %+v\nRunChecked %+v", plain, checked)
	}
}

// TestFailureStatsPartial: on failure the stats describe the partial run up
// to the teardown, so campaigns can price time-to-detect.
func TestFailureStatsPartial(t *testing.T) {
	model := CostModel{Ts: 1e-3}
	st, err := RunChecked(4, model, func(c *Comm) error {
		c.Barrier()
		c.Barrier()
		if c.Rank() == 0 {
			panic("dead")
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("want failure")
	}
	if st == nil {
		t.Fatal("want partial stats on clean teardown")
	}
	want := 2 * model.Ts * 2 // two completed barriers, log2(4)=2
	if st.Time() < want {
		t.Fatalf("partial time %g, want >= %g", st.Time(), want)
	}
}

func TestCheckedDeterministicFailure(t *testing.T) {
	run := func() string {
		_, err := RunChecked(5, CostModel{}, func(c *Comm) error {
			c.Barrier()
			if c.Rank() == 3 {
				panic("boom")
			}
			c.Barrier()
			return nil
		})
		return fmt.Sprint(err)
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("failure not deterministic: %q vs %q", got, first)
		}
	}
}
