package fault

import (
	"fmt"
	"math/rand"
)

// Chaos: a seeded schedule of heterogeneous failures for a checkpointed
// campaign. Where Plan injects faults into a single world run, a ChaosPlan
// spans a whole self-healing campaign: each time the world dies and is
// restored from its latest checkpoint, the next event in the schedule is
// armed. One seed reproduces the entire sequence — kills, clean drains,
// lossy links, stragglers — so a chaos failure found in CI replays exactly.

// ChaosKind enumerates the event types a chaos schedule composes.
type ChaosKind int

const (
	// ChaosKill hard-fails the victim rank at its At-th collective of the
	// current attempt (the in-process analogue of SIGKILL; survivors see a
	// structured *comm.RankFailure).
	ChaosKill ChaosKind = iota
	// ChaosDrain makes the victim leave cleanly at campaign step At — a
	// SIGTERM-style departure at a step boundary. Survivors observe a
	// structured *comm.AbandonedError when they next wait on it.
	ChaosDrain
)

func (k ChaosKind) String() string {
	switch k {
	case ChaosKill:
		return "kill"
	case ChaosDrain:
		return "drain"
	}
	return fmt.Sprintf("ChaosKind(%d)", int(k))
}

// ChaosEvent is one scheduled outage: Kind decides the mechanism, Rank the
// victim, At the trigger point (a collective index for kills, a campaign
// step for drains — both relative to the attempt the event arms in).
type ChaosEvent struct {
	Kind ChaosKind
	Rank int
	At   int
}

// ChaosPlan is a deterministic multi-outage schedule plus the always-on
// background degradations (stragglers, lossy links) every attempt runs
// under.
type ChaosPlan struct {
	Seed       int64
	Events     []ChaosEvent
	Stragglers []Straggler
	Net        *NetPlan
}

// Attempt returns the event armed for the i-th campaign attempt, or nil
// when the schedule is exhausted (the attempt runs fault-free and the
// campaign can complete). Each event is consumed by exactly one attempt
// whether or not it fired — a kill scheduled beyond the attempt's horizon
// must not re-arm forever, or a restored campaign could livelock.
func (cp *ChaosPlan) Attempt(i int) *ChaosEvent {
	if cp == nil || i < 0 || i >= len(cp.Events) {
		return nil
	}
	return &cp.Events[i]
}

// Drains reports whether the event tells rank to leave at or before step.
func (e *ChaosEvent) Drains(rank, step int) bool {
	return e != nil && e.Kind == ChaosDrain && e.Rank == rank && step >= e.At
}

// ChaosOptions bounds the random chaos generator.
type ChaosOptions struct {
	// Events is the number of outages to schedule.
	Events int
	// MaxCollective bounds a kill's At in [0, MaxCollective); < 1 means 1.
	MaxCollective int
	// MaxStep bounds a drain's At in [0, MaxStep); < 1 means 1.
	MaxStep int
	// Stragglers is the number of degraded ranks (distinct, always on).
	Stragglers int
	// MaxMult bounds straggler multipliers in [1, MaxMult]; values <= 1
	// mean 4x, a typical thermally-throttled core.
	MaxMult float64
	// Loss, when non-empty, adds an unreliable network under every attempt.
	Loss LossFlags
}

// RandomChaosPlan draws a deterministic chaos schedule for a p-rank world:
// the same (seed, p, opts) always yields the same plan. Victims are drawn
// from ranks [1, p) — rank 0 carries the campaign bookkeeping, and killing
// the bookkeeper tests the test, not the runtime.
func RandomChaosPlan(seed int64, p int, opts ChaosOptions) (*ChaosPlan, error) {
	if p < 2 {
		return nil, fmt.Errorf("fault: chaos needs p >= 2, got %d", p)
	}
	rng := rand.New(rand.NewSource(seed))
	maxColl := opts.MaxCollective
	if maxColl < 1 {
		maxColl = 1
	}
	maxStep := opts.MaxStep
	if maxStep < 1 {
		maxStep = 1
	}
	plan := &ChaosPlan{Seed: seed}
	for i := 0; i < opts.Events; i++ {
		ev := ChaosEvent{Rank: 1 + rng.Intn(p-1)}
		if rng.Intn(2) == 0 {
			ev.Kind = ChaosKill
			ev.At = rng.Intn(maxColl)
		} else {
			ev.Kind = ChaosDrain
			ev.At = rng.Intn(maxStep)
		}
		plan.Events = append(plan.Events, ev)
	}
	maxMult := opts.MaxMult
	if maxMult <= 1 {
		maxMult = 4
	}
	for _, r := range pick(rng, p, opts.Stragglers) {
		plan.Stragglers = append(plan.Stragglers, Straggler{
			Rank:   r,
			TcMult: 1 + rng.Float64()*(maxMult-1),
			TwMult: 1 + rng.Float64()*(maxMult-1),
		})
	}
	if !opts.Loss.Empty() {
		np, err := opts.Loss.Plan(seed, p)
		if err != nil {
			return nil, err
		}
		plan.Net = np
	}
	return plan, nil
}
