// Package fault is the deterministic failure-injection layer over the
// checked SPMD runtime (comm.RunChecked). A Plan describes, ahead of time
// and reproducibly, which ranks die at which collective and which ranks run
// degraded; Hooks compiles the plan into the comm.Hooks intercept points.
//
// The fault model mirrors what repartitioning research treats as the
// machine-state changes worth reacting to (Mohanamuraly & Staffelbach,
// arXiv:2008.00832; Borrell et al., arXiv:2007.03518):
//
//   - Kill: rank r exits the world at its k-th collective, the way an MPI
//     rank segfaults or its node is reclaimed. Survivors observe a
//     *comm.RankFailure wrapping a *Killed and can repartition.
//   - Straggler: rank r's effective tc (local memory slowness) and tw
//     (network slowness) are multiplied, slotting directly into the
//     machine model of Eqs. (1)–(3): its local passes stretch by TcMult,
//     and — since the runtime is bulk-synchronous — the worst TwMult among
//     degraded ranks stretches every collective step.
//
// Injection changes only virtual time and control flow, never payloads:
// a run with stragglers moves bit-identical bytes and messages to an
// uninjected run, and an empty plan is a no-op (property-tested).
package fault

import (
	"fmt"
	"math/rand"

	"optipart/internal/comm"
)

// Kill schedules the death of one rank at its k-th collective call
// (0-based, counted per rank as in comm.Hooks.BeforeCollective).
type Kill struct {
	Rank         int
	AtCollective int
}

// Straggler degrades one rank: its local time charges are multiplied by
// TcMult and, because one slow NIC slows every bulk-synchronous step, the
// collective costs of the whole world are multiplied by the worst TwMult
// among stragglers. Multipliers <= 0 mean 1 (no change).
type Straggler struct {
	Rank   int
	TcMult float64
	TwMult float64
}

// Plan is a deterministic fault-injection schedule. The zero value injects
// nothing.
type Plan struct {
	Kills      []Kill
	Stragglers []Straggler
}

// Killed is the error a scheduled Kill raises inside the victim rank; it
// surfaces to the caller wrapped in the *comm.RankFailure that tore the
// world down.
type Killed struct {
	Rank       int
	Collective int
}

func (k *Killed) Error() string {
	return fmt.Sprintf("fault: rank %d killed at its collective %d", k.Rank, k.Collective)
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Kills) == 0 && len(p.Stragglers) == 0)
}

// Hooks compiles the plan into the runtime's intercept points. The result
// is a pure function of the plan: two worlds driven by equal plans behave
// identically.
func (p *Plan) Hooks() comm.Hooks {
	if p.Empty() {
		return comm.Hooks{}
	}
	kills := map[int]int{} // rank -> earliest scheduled collective
	for _, k := range p.Kills {
		if at, ok := kills[k.Rank]; !ok || k.AtCollective < at {
			kills[k.Rank] = k.AtCollective
		}
	}
	tc := map[int]float64{}
	worstTw := 1.0
	for _, s := range p.Stragglers {
		if s.TcMult > 0 {
			tc[s.Rank] = mulDefault(tc[s.Rank]) * s.TcMult
		}
		if s.TwMult > worstTw {
			worstTw = s.TwMult
		}
	}
	h := comm.Hooks{}
	if len(kills) > 0 {
		h.BeforeCollective = func(rank int, op string, seq int) {
			if at, ok := kills[rank]; ok && seq >= at {
				panic(&Killed{Rank: rank, Collective: seq})
			}
		}
	}
	if len(tc) > 0 {
		h.ElapseScale = func(rank int) float64 {
			return mulDefault(tc[rank])
		}
	}
	if worstTw != 1.0 {
		h.CollectiveScale = func(op string) float64 { return worstTw }
	}
	return h
}

func mulDefault(m float64) float64 {
	if m <= 0 {
		return 1
	}
	return m
}

// Run executes f on p ranks under the machine model with the plan's faults
// injected, returning the (possibly partial) stats and the first failure.
func Run(p int, model comm.CostModel, plan *Plan, f func(c *comm.Comm) error) (*comm.Stats, error) {
	return comm.RunCheckedOpts(p, model, comm.CheckedOptions{Hooks: plan.Hooks()}, f)
}

// pick draws n distinct ranks from [0, p).
func pick(rng *rand.Rand, p, n int) []int {
	if n > p {
		n = p
	}
	if n <= 0 {
		return nil
	}
	perm := rng.Perm(p)
	return perm[:n]
}
