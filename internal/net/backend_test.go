package net

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// fastOpts keeps failure detection well inside test timeouts.
func fastOpts() Options {
	return Options{
		IOTimeout:         5 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
	}
}

type rankResult struct {
	seps  []sfc.Key
	local []sfc.Key
	clock float64
	err   error
}

// partProgram is the SPMD rank program both backends run: seeded octants,
// model-driven partition, results parked per rank.
func partProgram(seed int64, n int, out *sync.Map) func(c *comm.Comm) error {
	return func(c *comm.Comm) error {
		curve := sfc.NewCurve(sfc.Hilbert, 3)
		rng := rand.New(rand.NewSource(seed + int64(c.Rank())))
		keys := octree.RandomKeys(rng, n, 3, octree.Normal, 2, 18)
		res := partition.Partition(c, keys, partition.Options{
			Curve:   curve,
			Mode:    partition.ModelDriven,
			Machine: machine.Clemson32(),
		})
		out.Store(c.Rank(), rankResult{
			seps:  res.Splitters.Seps,
			local: res.Local,
			clock: c.Clock(),
		})
		return nil
	}
}

// runWireWorld runs program across p ranks of one test process connected by
// a real unix-domain socket: rank 0 through Root, the rest through Dial.
func runWireWorld(t *testing.T, p int, sock string, model comm.CostModel, opts Options,
	program func(c *comm.Comm) error) map[int]error {
	t.Helper()
	root, err := NewRoot("unix:"+sock, p, opts)
	if err != nil {
		t.Fatalf("NewRoot: %v", err)
	}
	defer root.Close()

	errs := make(map[int]error)
	var errMu sync.Mutex
	record := func(rank int, err error) {
		errMu.Lock()
		errs[rank] = err
		errMu.Unlock()
	}

	var wg sync.WaitGroup
	for rank := 1; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			wk, err := Dial("unix:"+sock, rank, p, opts)
			if err != nil {
				record(rank, fmt.Errorf("dial: %w", err))
				return
			}
			defer wk.Close()
			_, err = comm.RunRank(rank, p, wk.Model(), wk, comm.CheckedOptions{}, program)
			record(rank, err)
		}(rank)
	}

	if err := root.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	root.Announce(model)
	_, err = comm.RunRank(0, p, model, root, comm.CheckedOptions{}, program)
	record(0, err)
	root.Drain(5 * time.Second)
	wg.Wait()
	return errs
}

// TestWireEquivalence is the acceptance check of the tentpole: the same
// rank program must produce byte-identical splitters and placements on the
// in-process backend and on the wire backend.
func TestWireEquivalence(t *testing.T) {
	const (
		p    = 4
		n    = 1500
		seed = 20170626
	)
	model := machine.Clemson32().CostModel()

	var inproc sync.Map
	if _, err := comm.RunChecked(p, model, partProgram(seed, n, &inproc)); err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	var wire sync.Map
	sock := filepath.Join(t.TempDir(), "w.sock")
	errs := runWireWorld(t, p, sock, model, fastOpts(), partProgram(seed, n, &wire))
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("wire rank %d: %v", rank, err)
		}
	}

	for rank := 0; rank < p; rank++ {
		av, ok := inproc.Load(rank)
		bv, bok := wire.Load(rank)
		if !ok || !bok {
			t.Fatalf("rank %d missing results (inproc=%v wire=%v)", rank, ok, bok)
		}
		a, b := av.(rankResult), bv.(rankResult)
		if len(a.seps) != len(b.seps) {
			t.Fatalf("rank %d: %d vs %d splitters", rank, len(a.seps), len(b.seps))
		}
		for i := range a.seps {
			if a.seps[i] != b.seps[i] {
				t.Fatalf("rank %d splitter %d differs: %v vs %v", rank, i, a.seps[i], b.seps[i])
			}
		}
		if len(a.local) != len(b.local) {
			t.Fatalf("rank %d: %d vs %d local octants", rank, len(a.local), len(b.local))
		}
		for i := range a.local {
			if a.local[i] != b.local[i] {
				t.Fatalf("rank %d local octant %d differs: %v vs %v", rank, i, a.local[i], b.local[i])
			}
		}
		if a.clock != b.clock {
			t.Fatalf("rank %d clock differs: %v vs %v (modeled time must be backend-independent)",
				rank, a.clock, b.clock)
		}
	}
}

// TestWireCollectivesEquivalence sweeps every collective through both
// backends and compares the consumed values and final clocks.
func TestWireCollectivesEquivalence(t *testing.T) {
	const p = 3
	model := comm.CostModel{Tc: 2e-9, Ts: 5e-6, Tw: 1.5e-9}

	program := func(out *sync.Map) func(c *comm.Comm) error {
		return func(c *comm.Comm) error {
			r := c.Rank()
			sum := comm.Allreduce(c, []int64{int64(r + 1), 10 * int64(r+1)}, 8, comm.SumI64)
			gath := comm.Allgather(c, []float64{float64(r) * 1.5}, 8)
			send := make([][]int64, c.Size())
			for dst := range send {
				for k := 0; k <= r; k++ {
					send[dst] = append(send[dst], int64(100*r+dst))
				}
			}
			recv := comm.Alltoallv(c, send, 8, comm.AlltoallvOptions{})
			c.Barrier()
			out.Store(r, []any{sum, gath, recv, c.Clock()})
			return nil
		}
	}

	var inproc, wire sync.Map
	if _, err := comm.RunChecked(p, model, program(&inproc)); err != nil {
		t.Fatalf("in-process: %v", err)
	}
	sock := filepath.Join(t.TempDir(), "c.sock")
	errs := runWireWorld(t, p, sock, model, fastOpts(), program(&wire))
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("wire rank %d: %v", rank, err)
		}
	}
	for rank := 0; rank < p; rank++ {
		av, _ := inproc.Load(rank)
		bv, _ := wire.Load(rank)
		if fmt.Sprintf("%v", av) != fmt.Sprintf("%v", bv) {
			t.Fatalf("rank %d diverged:\n inproc %v\n wire   %v", rank, av, bv)
		}
	}
}

// TestWorkerDeathSurfacesRankFailure kills a worker mid-campaign (its
// connection drops and it goes silent, exactly like a killed process) and
// asserts every survivor gets a structured RankFailure naming the victim —
// then recovers: the survivors form a new, smaller world on a fresh socket
// and complete the partition there.
func TestWorkerDeathSurfacesRankFailure(t *testing.T) {
	const (
		p      = 4
		victim = 2
		n      = 600
		seed   = 4242
	)
	model := machine.Clemson32().CostModel()
	opts := fastOpts()
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")

	root, err := NewRoot("unix:"+sock, p, opts)
	if err != nil {
		t.Fatalf("NewRoot: %v", err)
	}
	defer root.Close()

	errs := make(map[int]error)
	var errMu sync.Mutex
	record := func(rank int, err error) {
		errMu.Lock()
		errs[rank] = err
		errMu.Unlock()
	}

	var out sync.Map
	var wg sync.WaitGroup
	for rank := 1; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			wk, err := Dial("unix:"+sock, rank, p, opts)
			if err != nil {
				record(rank, fmt.Errorf("dial: %w", err))
				return
			}
			defer wk.Close()
			var ranOpts comm.CheckedOptions
			if rank == victim {
				// Die silently at the 3rd collective: sever the socket and
				// unwind, like a SIGKILLed process. No goodbye frame.
				ranOpts.Hooks = comm.Hooks{BeforeCollective: func(_ int, _ string, seq int) {
					if seq == 3 {
						wk.Close()
						panic("simulated process death")
					}
				}}
			}
			_, err = comm.RunRank(rank, p, wk.Model(), wk, ranOpts, partProgram(seed, n, &out))
			record(rank, err)
		}(rank)
	}

	if err := root.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	root.Announce(model)
	_, rootErr := comm.RunRank(0, p, model, root, comm.CheckedOptions{}, partProgram(seed, n, &out))
	record(0, rootErr)
	wg.Wait()

	for _, rank := range []int{0, 1, 3} {
		var rf *comm.RankFailure
		if !errors.As(errs[rank], &rf) {
			t.Fatalf("rank %d: got %v, want *comm.RankFailure", rank, errs[rank])
		}
		if rf.Rank != victim {
			t.Fatalf("rank %d blames rank %d, want %d (%v)", rank, rf.Rank, victim, rf)
		}
	}

	// Recovery-by-repartition: survivors renumber into a p-1 world on a new
	// socket and the partition completes there.
	sock2 := filepath.Join(dir, "r.sock")
	var recovered sync.Map
	errs2 := runWireWorld(t, p-1, sock2, model, opts, partProgram(seed+1, n, &recovered))
	for rank, err := range errs2 {
		if err != nil {
			t.Fatalf("recovery rank %d: %v", rank, err)
		}
	}
	for rank := 0; rank < p-1; rank++ {
		if _, ok := recovered.Load(rank); !ok {
			t.Fatalf("recovery rank %d produced no result", rank)
		}
	}
}

func TestCalibrateProducesUsableModel(t *testing.T) {
	const p = 2
	opts := fastOpts()
	sock := filepath.Join(t.TempDir(), "cal.sock")
	root, err := NewRoot("unix:"+sock, p, opts)
	if err != nil {
		t.Fatalf("NewRoot: %v", err)
	}
	defer root.Close()

	var wg sync.WaitGroup
	var dialErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		wk, err := Dial("unix:"+sock, 1, p, opts)
		if err != nil {
			dialErr = err
			return
		}
		defer wk.Close()
		if wk.Model().Tc <= 0 {
			dialErr = fmt.Errorf("worker received uncalibrated model %+v", wk.Model())
			return
		}
		_, dErr := comm.RunRank(1, p, wk.Model(), wk, comm.CheckedOptions{}, func(c *comm.Comm) error {
			comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
			return nil
		})
		if dErr != nil {
			dialErr = dErr
		}
	}()

	if err := root.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	model, err := root.Calibrate(CalibrateOptions{Rounds: 4, LargeBytes: 64 << 10, SweepBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if model.Tc <= 0 || model.Ts <= 0 {
		t.Fatalf("calibrated model has non-positive tc/ts: %+v", model)
	}
	root.Announce(model)
	if _, err := comm.RunRank(0, p, model, root, comm.CheckedOptions{}, func(c *comm.Comm) error {
		comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
		return nil
	}); err != nil {
		t.Fatalf("root run: %v", err)
	}
	root.Drain(5 * time.Second)
	wg.Wait()
	if dialErr != nil {
		t.Fatalf("worker: %v", dialErr)
	}
}
