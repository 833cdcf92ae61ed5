package net

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"optipart/internal/ckpt"
	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

func testCampaignOpts(steps int, saver ckpt.Saver, cp ckpt.Checkpointer) ckpt.CampaignOptions {
	return ckpt.CampaignOptions{
		Steps:        steps,
		PerRank:      120,
		Seed:         20170626,
		Kind:         sfc.Hilbert,
		Dim:          3,
		Mode:         partition.ModelDriven,
		Machine:      machine.Clemson32(),
		Dist:         octree.Normal,
		MinLevel:     2,
		MaxLevel:     10,
		Every:        1,
		Saver:        saver,
		Checkpointer: cp,
	}
}

// TestRestoreRejoinCompletesCampaign is the tentpole's wire-level
// acceptance: a worker hard-dies mid-campaign under the Restore policy, a
// replacement incarnation is spawned from the latest checkpoint, rejoins
// with a higher incarnation number, is replayed forward, and the campaign
// finishes with the exact digest of the fault-free run.
func TestRestoreRejoinCompletesCampaign(t *testing.T) {
	const (
		p      = 4
		victim = 2
		steps  = 3
	)
	model := machine.Clemson32().CostModel()

	// Fault-free golden, in-process: digest plus the per-step collective
	// sequence numbers (to place the kill strictly inside step 1, after the
	// step-0 checkpoint exists).
	var goldenDigest uint64
	var seqAt []uint64
	var seqMu sync.Mutex
	goldenOpts := testCampaignOpts(steps, ckpt.NewMemStore(), nil)
	goldenOpts.StepDone = func(c *comm.Comm, step int, seq uint64) bool {
		if c.Rank() == 0 {
			seqMu.Lock()
			seqAt = append(seqAt, seq)
			seqMu.Unlock()
		}
		return true
	}
	if _, err := comm.RunChecked(p, model, func(c *comm.Comm) error {
		out, err := ckpt.RunCampaign(c, ckpt.Fresh(), goldenOpts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			goldenDigest = out.Digest
		}
		return nil
	}); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if len(seqAt) != steps {
		t.Fatalf("recorded %d step boundaries, want %d", len(seqAt), steps)
	}
	killSeq := int(seqAt[0]) + 2 // inside step 1

	respawn := make(chan int, p)
	opts := fastOpts()
	opts.OnFailure = Restore
	opts.OnDeath = func(rank int) { respawn <- rank }
	sock := filepath.Join(t.TempDir(), "rj.sock")
	ep := "unix:" + sock

	rt, err := NewRoot(ep, p, opts)
	if err != nil {
		t.Fatalf("NewRoot: %v", err)
	}
	defer rt.Close()

	mem := ckpt.NewMemStore()
	copts := testCampaignOpts(steps, mem, rt)

	var digests sync.Map
	errs := make(map[string]error)
	var errMu sync.Mutex
	record := func(who string, err error) {
		errMu.Lock()
		errs[who] = err
		errMu.Unlock()
	}
	body := func(res ckpt.Resume) func(c *comm.Comm) error {
		return func(c *comm.Comm) error {
			out, err := ckpt.RunCampaign(c, res, copts)
			if err != nil {
				return err
			}
			digests.Store(c.Rank(), out.Digest)
			return nil
		}
	}

	var wg sync.WaitGroup
	// The supervisor seam: OnDeath hands the dead rank to a respawner that
	// restores from the latest checkpoint and rejoins as incarnation 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rank := <-respawn
		snap, err := mem.Latest()
		if err != nil || snap == nil {
			record("respawn", fmt.Errorf("no checkpoint to restore: %v", err))
			return
		}
		res, err := ckpt.ResumeFrom(snap, rank)
		if err != nil {
			record("respawn", err)
			return
		}
		wk, err := DialResume(ep, rank, p, res.Seq, 1, fastOpts())
		if err != nil {
			record("respawn", fmt.Errorf("rejoin dial: %w", err))
			return
		}
		defer wk.Close()
		_, err = comm.RunRank(rank, p, wk.Model(), wk, comm.CheckedOptions{}, body(res))
		record("respawn", err)
	}()

	for rank := 1; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			wk, err := Dial(ep, rank, p, fastOpts())
			if err != nil {
				record(fmt.Sprintf("rank%d", rank), fmt.Errorf("dial: %w", err))
				return
			}
			defer wk.Close()
			var ro comm.CheckedOptions
			if rank == victim {
				ro.Hooks = comm.Hooks{BeforeCollective: func(_ int, _ string, seq int) {
					if seq == killSeq {
						wk.Close()
						panic("simulated process death")
					}
				}}
			}
			_, err = comm.RunRank(rank, p, wk.Model(), wk, ro, body(ckpt.Fresh()))
			if rank == victim {
				return // the first incarnation's failure is the point
			}
			record(fmt.Sprintf("rank%d", rank), err)
		}(rank)
	}

	if err := rt.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	rt.Announce(model)
	record("root", func() error {
		_, err := comm.RunRank(0, p, model, rt, comm.CheckedOptions{}, body(ckpt.Fresh()))
		return err
	}())
	rt.Drain(5 * time.Second)
	wg.Wait()

	for who, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
	}
	for _, rank := range []int{0, 1, 2, 3} {
		d, ok := digests.Load(rank)
		if !ok {
			t.Fatalf("rank %d recorded no digest", rank)
		}
		if d.(uint64) != goldenDigest {
			t.Fatalf("rank %d digest %016x != fault-free golden %016x", rank, d, goldenDigest)
		}
	}
	rec := rt.Recovery()
	if rec.Deaths < 1 || rec.Rejoins < 1 {
		t.Fatalf("recovery stats did not register the outage: %+v", rec)
	}
	if rec.RestoredBytes <= 0 {
		t.Fatalf("no replayed bytes recorded: %+v", rec)
	}
	if rec.MTTR() <= 0 {
		t.Fatalf("MTTR not measured: %+v", rec)
	}

	// Zombie fence: the dead incarnation 0 cannot re-enter the world that
	// already admitted incarnation 1.
	if _, err := DialResume(ep, victim, p, ResumeNone, 0, fastOpts()); err == nil {
		t.Fatal("zombie incarnation was readmitted")
	}
}

// TestWaitReadyJoinTimeout asserts the rendezvous failure is structured and
// names exactly the ranks that never connected.
func TestWaitReadyJoinTimeout(t *testing.T) {
	const p = 4
	opts := fastOpts()
	sock := filepath.Join(t.TempDir(), "jt.sock")
	rt, err := NewRoot("unix:"+sock, p, opts)
	if err != nil {
		t.Fatalf("NewRoot: %v", err)
	}
	defer rt.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		wk, err := Dial("unix:"+sock, 1, p, opts)
		if err == nil {
			defer wk.Close()
		}
	}()

	err = rt.WaitReady(600 * time.Millisecond)
	var jt *JoinTimeout
	if !errors.As(err, &jt) {
		t.Fatalf("got %v, want *JoinTimeout", err)
	}
	if jt.P != p || jt.Joined != 1 {
		t.Fatalf("JoinTimeout %+v, want P=%d Joined=1", jt, p)
	}
	if len(jt.Missing) != 2 || jt.Missing[0] != 2 || jt.Missing[1] != 3 {
		t.Fatalf("Missing %v, want [2 3]", jt.Missing)
	}
	rt.Close()
	<-done
}

// TestShutdownDeliversStructuredError: the root's orderly shutdown surfaces
// as *ShutdownError on the root's own world and on every worker.
func TestShutdownDeliversStructuredError(t *testing.T) {
	const p = 3
	opts := fastOpts()
	sock := filepath.Join(t.TempDir(), "sd.sock")
	rt, err := NewRoot("unix:"+sock, p, opts)
	if err != nil {
		t.Fatalf("NewRoot: %v", err)
	}
	defer rt.Close()

	// An endless program: only the shutdown ends it.
	endless := func(c *comm.Comm) error {
		for {
			comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
		}
	}
	errs := make(map[int]error)
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for rank := 1; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			wk, err := Dial("unix:"+sock, rank, p, opts)
			if err != nil {
				errMu.Lock()
				errs[rank] = err
				errMu.Unlock()
				return
			}
			defer wk.Close()
			_, err = comm.RunRank(rank, p, wk.Model(), wk, comm.CheckedOptions{}, endless)
			errMu.Lock()
			errs[rank] = err
			errMu.Unlock()
		}(rank)
	}
	if err := rt.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	rt.Announce(comm.CostModel{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		rt.Shutdown("test interrupt")
	}()
	_, rootErr := comm.RunRank(0, p, comm.CostModel{}, rt, comm.CheckedOptions{}, endless)
	wg.Wait()

	var se *ShutdownError
	if !errors.As(rootErr, &se) {
		t.Fatalf("root: got %v, want *ShutdownError", rootErr)
	}
	for rank := 1; rank < p; rank++ {
		if !errors.As(errs[rank], &se) {
			t.Fatalf("rank %d: got %v, want *ShutdownError", rank, errs[rank])
		}
	}
}

// TestMonitorRevive: a revived rank re-enters liveness tracking and can be
// declared dead a second time.
func TestMonitorRevive(t *testing.T) {
	base := time.Unix(1000, 0)
	m := NewMonitor(100 * time.Millisecond)
	m.Touch(1, base)
	if got := m.Expired(base.Add(150 * time.Millisecond)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Expired = %v, want [1]", got)
	}
	if !m.Dead(1) {
		t.Fatal("rank 1 should be dead")
	}
	// Dead ranks ignore touches until revived.
	m.Touch(1, base.Add(200*time.Millisecond))
	if got := m.Expired(base.Add(400 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("dead rank re-expired: %v", got)
	}
	m.Revive(1)
	if m.Dead(1) {
		t.Fatal("rank 1 still dead after Revive")
	}
	// Not yet touched: no expiry either.
	if got := m.Expired(base.Add(10 * time.Second)); len(got) != 0 {
		t.Fatalf("untouched revived rank expired: %v", got)
	}
	m.Touch(1, base.Add(500*time.Millisecond))
	if got := m.Expired(base.Add(650 * time.Millisecond)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("revived rank did not re-expire: %v", got)
	}
}
