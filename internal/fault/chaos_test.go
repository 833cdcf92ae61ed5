package fault

import (
	"errors"
	"reflect"
	"testing"

	"optipart/internal/comm"
)

func TestRandomChaosPlanDeterministic(t *testing.T) {
	opts := ChaosOptions{Events: 5, MaxCollective: 40, MaxStep: 6, Stragglers: 2,
		Loss: LossFlags{Loss: 0.01, Retry: 4}}
	a, err := RandomChaosPlan(99, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomChaosPlan(99, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	c, _ := RandomChaosPlan(100, 8, opts)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds drew identical event schedules")
	}
}

func TestRandomChaosPlanSparesRankZero(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		plan, err := RandomChaosPlan(seed, 4, ChaosOptions{Events: 6, MaxCollective: 10, MaxStep: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Events) != 6 {
			t.Fatalf("seed %d: %d events, want 6", seed, len(plan.Events))
		}
		for _, ev := range plan.Events {
			if ev.Rank < 1 || ev.Rank >= 4 {
				t.Fatalf("seed %d: victim rank %d outside [1, 4)", seed, ev.Rank)
			}
		}
	}
	if _, err := RandomChaosPlan(1, 1, ChaosOptions{Events: 1}); err == nil {
		t.Fatal("p=1 chaos plan accepted")
	}
}

func TestChaosAttemptConsumesEvents(t *testing.T) {
	plan := &ChaosPlan{Events: []ChaosEvent{
		{Kind: ChaosKill, Rank: 1, At: 3},
		{Kind: ChaosDrain, Rank: 2, At: 1},
	}}
	if ev := plan.Attempt(0); ev == nil || ev.Kind != ChaosKill || ev.Rank != 1 {
		t.Fatalf("attempt 0 = %+v", ev)
	}
	if ev := plan.Attempt(1); ev == nil || ev.Kind != ChaosDrain || ev.Rank != 2 {
		t.Fatalf("attempt 1 = %+v", ev)
	}
	if ev := plan.Attempt(2); ev != nil {
		t.Fatalf("exhausted schedule returned %+v", ev)
	}
	if ev := (*ChaosPlan)(nil).Attempt(0); ev != nil {
		t.Fatal("nil plan returned an event")
	}
}

// TestChaosKillHooksRaiseKilled arms a kill event the way the chaos
// harness does: as a fault.Plan kill run under the plan's stragglers.
func TestChaosKillHooksRaiseKilled(t *testing.T) {
	ev := &ChaosEvent{Kind: ChaosKill, Rank: 2, At: 1}
	plan := &Plan{
		Stragglers: []Straggler{{Rank: 1, TcMult: 2, TwMult: 2}},
		Kills:      []Kill{{Rank: ev.Rank, AtCollective: ev.At}},
	}
	_, err := Run(4, comm.CostModel{}, plan, func(c *comm.Comm) error {
		for i := 0; i < 4; i++ {
			comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
		}
		return nil
	})
	var rf *comm.RankFailure
	if !errors.As(err, &rf) || rf.Rank != 2 {
		t.Fatalf("got %v, want RankFailure on rank 2", err)
	}
	var killed *Killed
	if !errors.As(err, &killed) || killed.Collective != 1 {
		t.Fatalf("got %v, want *Killed at collective 1", err)
	}
}

func TestChaosDrainPredicate(t *testing.T) {
	ev := &ChaosEvent{Kind: ChaosDrain, Rank: 3, At: 2}
	if ev.Drains(3, 1) {
		t.Fatal("drained before At")
	}
	if !ev.Drains(3, 2) || !ev.Drains(3, 5) {
		t.Fatal("did not drain at/after At")
	}
	if ev.Drains(1, 2) {
		t.Fatal("wrong rank drained")
	}
	kill := &ChaosEvent{Kind: ChaosKill, Rank: 3, At: 2}
	if kill.Drains(3, 2) {
		t.Fatal("kill event reported as drain")
	}
	if (*ChaosEvent)(nil).Drains(0, 0) {
		t.Fatal("nil event drained")
	}
}
