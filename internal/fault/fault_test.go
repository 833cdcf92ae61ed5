package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"optipart/internal/comm"
)

// workload is a representative mixed collective/compute body, seeded so
// different test runs stress different shapes.
func workload(seed int64) func(c *comm.Comm) error {
	return func(c *comm.Comm) error {
		rng := rand.New(rand.NewSource(seed + int64(c.Rank())))
		c.SetPhase("compute")
		c.Compute(int64(1000 + rng.Intn(5000)))
		c.SetPhase("exchange")
		v := comm.Allgather(c, []int64{int64(c.Rank())}, 8)
		_ = comm.Allreduce(c, v, 8, comm.SumI64)
		send := make([][]int64, c.Size())
		for dst := range send {
			send[dst] = make([]int64, rng.Intn(8))
		}
		_ = comm.Alltoallv(c, send, 8, comm.AlltoallvOptions{StageWidth: 2})
		_ = comm.AllreduceScalar(c, int64(c.Rank()), 8, comm.SumI64)
		c.Barrier()
		return nil
	}
}

func mustRun(t *testing.T, p int, model comm.CostModel, plan *Plan, seed int64) *comm.Stats {
	t.Helper()
	st, err := Run(p, model, plan, workload(seed))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return st
}

// TestEmptyPlanBitIdentical: an empty plan must be indistinguishable from
// an uninjected checked run — clocks, phase times, bytes, and messages all
// bit-identical.
func TestEmptyPlanBitIdentical(t *testing.T) {
	model := comm.CostModel{Tc: 1e-9, Ts: 1e-5, Tw: 1e-8}
	for seed := int64(0); seed < 5; seed++ {
		bare, err := comm.RunChecked(6, model, workload(seed))
		if err != nil {
			t.Fatalf("bare run failed: %v", err)
		}
		injected := mustRun(t, 6, model, &Plan{}, seed)
		if !reflect.DeepEqual(bare, injected) {
			t.Fatalf("seed %d: empty plan changed the run:\nbare     %+v\ninjected %+v", seed, bare, injected)
		}
	}
}

// TestStragglersChangeClocksNotTraffic is the injection invariant: tc/tw
// multipliers stretch virtual time but never change what data moves — the
// per-rank byte and message counts are bit-identical to the uninjected run.
func TestStragglersChangeClocksNotTraffic(t *testing.T) {
	model := comm.CostModel{Tc: 1e-9, Ts: 1e-5, Tw: 1e-8}
	const p = 7
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		plan := &Plan{}
		for _, r := range rng.Perm(p)[:1+rng.Intn(3)] {
			plan.Stragglers = append(plan.Stragglers, Straggler{
				Rank:   r,
				TcMult: 1 + rng.Float64()*7,
				TwMult: 1 + rng.Float64()*7,
			})
		}
		base := mustRun(t, p, model, &Plan{}, seed)
		slow := mustRun(t, p, model, plan, seed)
		if !reflect.DeepEqual(base.BytesSent, slow.BytesSent) {
			t.Fatalf("seed %d: stragglers changed bytes: %v vs %v", seed, base.BytesSent, slow.BytesSent)
		}
		if !reflect.DeepEqual(base.MsgsSent, slow.MsgsSent) {
			t.Fatalf("seed %d: stragglers changed messages: %v vs %v", seed, base.MsgsSent, slow.MsgsSent)
		}
		if slow.Time() < base.Time() {
			t.Fatalf("seed %d: straggled run finished earlier: %g < %g", seed, slow.Time(), base.Time())
		}
		if slow.Time() == base.Time() {
			t.Fatalf("seed %d: stragglers (%v) did not change the clock", seed, plan.Stragglers)
		}
	}
}

func TestKillSurfacesAsRankFailure(t *testing.T) {
	plan := &Plan{Kills: []Kill{{Rank: 2, AtCollective: 3}}}
	_, err := Run(5, comm.CostModel{}, plan, workload(1))
	var rf *comm.RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("want *comm.RankFailure, got %v", err)
	}
	var k *Killed
	if !errors.As(err, &k) {
		t.Fatalf("want wrapped *Killed, got %v", err)
	}
	if k.Rank != 2 || k.Collective != 3 {
		t.Fatalf("killed %d@%d, want 2@3", k.Rank, k.Collective)
	}
	if rf.Rank != 2 || rf.Collective != 3 {
		t.Fatalf("failure attributed to %d@%d, want 2@3", rf.Rank, rf.Collective)
	}
}

func TestKillDeterministic(t *testing.T) {
	plan := &Plan{Kills: []Kill{{Rank: 1, AtCollective: 2}}}
	run := func() string {
		st, err := Run(4, comm.CostModel{Ts: 1e-4}, plan, workload(7))
		return fmt.Sprintf("%v | t=%v", err, st.Time())
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("kill campaign not deterministic: %q vs %q", got, first)
		}
	}
}

// TestKillPastEndIsNoop: a kill scheduled beyond the rank's last collective
// never fires — the run completes cleanly.
func TestKillPastEndIsNoop(t *testing.T) {
	plan := &Plan{Kills: []Kill{{Rank: 0, AtCollective: 10000}}}
	if _, err := Run(3, comm.CostModel{}, plan, workload(3)); err != nil {
		t.Fatalf("kill scheduled past the run should not fire: %v", err)
	}
}

// TestStragglerSlowsOnlyItsOwnCompute: TcMult stretches only the degraded
// rank's local charges; other ranks' compute-phase clocks are untouched.
func TestStragglerSlowsOnlyItsOwnCompute(t *testing.T) {
	model := comm.CostModel{Tc: 1e-6}
	body := func(c *comm.Comm) error {
		c.SetPhase("compute")
		c.Compute(1000)
		c.SetPhase("sync") // barrier wait must not be charged to "compute"
		c.Barrier()
		return nil
	}
	base, err := comm.RunChecked(4, model, body)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(4, model, &Plan{Stragglers: []Straggler{{Rank: 2, TcMult: 3}}}, body)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		got := slow.PhaseTimes[r]["compute"]
		want := base.PhaseTimes[r]["compute"]
		if r == 2 {
			want *= 3
		}
		if got != want {
			t.Fatalf("rank %d compute time %g, want %g", r, got, want)
		}
	}
}
