package net

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"optipart/internal/comm"
)

// TestAbortReachesEveryRank drives the fAbort path over a 3-rank
// unix-socket world: a failure detected on one process must surface on
// every rank as the same structured error, reconstructed from wireFailure
// — including a worker's own failure, which only the root can relay to
// the other workers.
func TestAbortReachesEveryRank(t *testing.T) {
	const p = 3
	model := comm.CostModel{Tc: 2e-9, Ts: 5e-6, Tw: 1.5e-9}

	t.Run("mismatch", func(t *testing.T) {
		// Rank 2 enters a barrier while its peers enter an allreduce: the
		// root's signature check fails the step and broadcasts the abort.
		program := func(c *comm.Comm) error {
			comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
			if c.Rank() == 2 {
				c.Barrier()
			} else {
				comm.Allreduce(c, []int64{2}, 8, comm.SumI64)
			}
			return nil
		}
		sock := filepath.Join(t.TempDir(), "m.sock")
		errs := runAbortWorld(t, p, sock, model, program)
		for rank := 0; rank < p; rank++ {
			var me *comm.MismatchError
			if !errors.As(errs[rank], &me) {
				t.Fatalf("rank %d: got %v, want *comm.MismatchError", rank, errs[rank])
			}
			if me.Step != 1 || len(me.Calls) != p || me.Calls[2].Op != "barrier" {
				t.Fatalf("rank %d: mismatch %+v does not name rank 2's barrier at step 1", rank, me)
			}
		}
	})

	t.Run("rank-failure", func(t *testing.T) {
		// Rank 1's program fails after the first collective: its abort
		// crosses to the root, and the root's world failure reaches rank 2.
		cause := errors.New("boom")
		program := func(c *comm.Comm) error {
			comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
			if c.Rank() == 1 {
				return cause
			}
			comm.Allreduce(c, []int64{2}, 8, comm.SumI64)
			return nil
		}
		sock := filepath.Join(t.TempDir(), "f.sock")
		errs := runAbortWorld(t, p, sock, model, program)
		var want *comm.RankFailure
		if !errors.As(errs[1], &want) || !errors.Is(want.Err, cause) {
			t.Fatalf("rank 1: got %v, want its own *comm.RankFailure wrapping %v", errs[1], cause)
		}
		for _, rank := range []int{0, 2} {
			var rf *comm.RankFailure
			if !errors.As(errs[rank], &rf) {
				t.Fatalf("rank %d: got %v, want *comm.RankFailure", rank, errs[rank])
			}
			if rf.Rank != want.Rank || rf.Op != want.Op || rf.Phase != want.Phase ||
				rf.Collective != want.Collective || rf.Err.Error() != cause.Error() {
				t.Fatalf("rank %d: got %+v, want the round trip of %+v", rank, rf, want)
			}
		}
	})
}

// runAbortWorld is runWireWorld for programs expected to fail: the root is
// closed once its own rank program returns and the workers drain, so a
// worker the abort never reached fails with a LinkFailure instead of
// hanging the test.
func runAbortWorld(t *testing.T, p int, sock string, model comm.CostModel,
	program func(c *comm.Comm) error) map[int]error {
	t.Helper()
	opts := fastOpts()
	root, err := NewRoot("unix:"+sock, p, opts)
	if err != nil {
		t.Fatalf("NewRoot: %v", err)
	}
	defer root.Close()
	type outcome struct {
		rank int
		err  error
	}
	done := make(chan outcome, p)
	for rank := 1; rank < p; rank++ {
		go func(rank int) {
			wk, err := Dial("unix:"+sock, rank, p, opts)
			if err == nil {
				_, err = comm.RunRank(rank, p, wk.Model(), wk, comm.CheckedOptions{}, program)
				wk.Close()
			}
			done <- outcome{rank, err}
		}(rank)
	}
	if err := root.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	root.Announce(model)
	_, err = comm.RunRank(0, p, model, root, comm.CheckedOptions{}, program)
	errs := map[int]error{0: err}
	root.Drain(5 * time.Second)
	root.Close()
	for len(errs) < p {
		o, err := await("a worker's outcome", done)
		if err != nil {
			t.Fatal(err)
		}
		errs[o.rank] = o.err
	}
	return errs
}

// TestUnsupportedElemFailsOnEveryRank: on a 2-rank unix-socket world, a
// collective over a struct with no wire form fails at entry on every rank
// with the same *comm.UsageError — no rank blocks waiting for a deposit
// that was never sent, and nothing undecodable reaches the wire.
func TestUnsupportedElemFailsOnEveryRank(t *testing.T) {
	const p = 2
	type pair struct{ A, B int64 }
	program := func(c *comm.Comm) error {
		comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
		comm.AllreduceScalar(c, pair{1, int64(c.Rank())}, 16, func(x, y pair) pair { return pair{x.A + y.A, x.B + y.B} })
		return nil
	}
	sock := filepath.Join(t.TempDir(), "u.sock")
	errs := runAbortWorld(t, p, sock, comm.CostModel{}, program)
	for rank := 0; rank < p; rank++ {
		var ue *comm.UsageError
		if !errors.As(errs[rank], &ue) || ue.Op != "allreduce" {
			t.Fatalf("rank %d: got %v, want a *comm.UsageError from allreduce", rank, errs[rank])
		}
	}
}

// TestReconnectBudgetRaisesLinkFailure: on a 2-rank unix-socket world, the
// root goes away while the worker waits in its first allreduce. The worker
// re-dials DefaultMaxRetries times, finds nothing listening, and fails its
// world with a *comm.LinkFailure naming the link, the collective and the
// exhausted budget — not a hang and not a silent nil.
func TestReconnectBudgetRaisesLinkFailure(t *testing.T) {
	const p = 2
	sock := filepath.Join(t.TempDir(), "l.sock")
	opts := fastOpts()
	root, err := NewRoot("unix:"+sock, p, opts)
	if err != nil {
		t.Fatalf("NewRoot: %v", err)
	}
	defer root.Close()
	type dialed struct {
		wk  *Worker
		err error
	}
	ready := make(chan dialed, 1)
	done := make(chan error, 1)
	go func() {
		wk, err := Dial("unix:"+sock, 1, p, opts)
		ready <- dialed{wk, err}
		if err != nil {
			return
		}
		defer wk.Close()
		_, err = comm.RunRank(1, p, wk.Model(), wk, comm.CheckedOptions{}, func(c *comm.Comm) error {
			comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
			return nil
		})
		done <- err
	}()
	if err := root.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	root.Announce(comm.CostModel{})
	d, err := await("the worker's dial", ready)
	if err != nil {
		t.Fatal(err)
	}
	if d.err != nil {
		t.Fatalf("Dial: %v", d.err)
	}
	// Close the root only once the worker is blocked in the allreduce, so
	// the failure names that step.
	for deadline := time.Now().Add(10 * time.Second); ; {
		d.wk.mu.Lock()
		awaiting := d.wk.awaiting
		d.wk.mu.Unlock()
		if awaiting == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never entered its allreduce")
		}
		time.Sleep(time.Millisecond)
	}
	root.Close()

	werr, err := await("the worker to fail after the root went away", done)
	if err != nil {
		t.Fatal(err)
	}
	var lf *comm.LinkFailure
	if !errors.As(werr, &lf) {
		t.Fatalf("got %v, want *comm.LinkFailure", werr)
	}
	want := comm.LinkFailure{Src: 1, Dst: 0, Op: "allreduce", Seq: 0,
		Attempts: DefaultMaxRetries, Cap: DefaultMaxRetries}
	if *lf != want {
		t.Fatalf("got %+v, want %+v", *lf, want)
	}
}
