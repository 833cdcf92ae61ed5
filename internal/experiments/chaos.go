package experiments

import (
	"errors"
	"fmt"

	"optipart/internal/ckpt"
	"optipart/internal/comm"
	"optipart/internal/fault"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

func init() {
	register("chaos",
		"seeded chaos harness: kills, drains, and stragglers against the checkpoint/restore campaign", chaosExperiment)
}

// chaosExperiment drives the self-healing campaign through a seeded
// multi-outage schedule and checks hard invariants after every attempt:
//
//   - every failure is structured (*RankFailure or *AbandonedError) —
//     never a hang (the runtime's stall watchdog ends a wedged attempt
//     with a *StallError, which fails the harness) and never an
//     unexplained error;
//   - the campaign, restored from its latest checkpoint after each outage,
//     finishes with a digest bit-identical to a fault-free golden run;
//   - the schedule is a pure function of the seed, so a failing sequence
//     replays exactly.
//
// One ChaosPlan composes hard kills (a rank dies at a collective), clean
// drains (a rank leaves at a step boundary), and always-on straggler
// time-dilation. Each campaign attempt arms the next scheduled event;
// checkpoints mean each restore resumes from the last durable epoch rather
// than from scratch.
func chaosExperiment(cfg Config) error {
	paperNote(cfg,
		"not in the paper: chaos testing of the self-healing extension — §3's repartitioning loop made checkpointed and fault-operative",
		"checkpointed refinement campaign on the Clemson-32 model under a seeded kill/drain/straggler schedule; restore from MemStore after every outage")

	m := machine.Clemson32()
	p, steps, perRank, events := 6, 6, 120, 4
	if cfg.Quick {
		p, steps, perRank, events = 4, 4, 60, 3
	}
	copts := ckpt.CampaignOptions{
		Steps: steps, PerRank: perRank, Seed: cfg.Seed,
		Kind: sfc.Hilbert, Dim: 3,
		Mode: partition.ModelDriven, Machine: m,
		Dist: octree.Normal, MinLevel: 2, MaxLevel: 10,
		Every: 2,
	}

	// Fault-free golden: the digest every self-healed attempt must land on,
	// plus the campaign's collective horizon (bounds the kill schedule).
	var golden uint64
	var totalColl int
	gopts := copts
	gopts.StepDone = func(c *comm.Comm, step int, seq uint64) bool {
		if c.Rank() == 0 && step == steps-1 {
			totalColl = c.CollectiveIndex()
		}
		return true
	}
	if _, err := comm.RunChecked(p, m.CostModel(), func(c *comm.Comm) error {
		out, err := ckpt.RunCampaign(c, ckpt.Fresh(), gopts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			golden = out.Digest
		}
		return nil
	}); err != nil {
		return fmt.Errorf("chaos: fault-free golden campaign failed: %w", err)
	}

	// Drains are bounded to steps-1 so a drain always leaves work undone:
	// a rank leaving after the final step would complete the campaign anyway.
	plan, err := fault.RandomChaosPlan(cfg.Seed, p, fault.ChaosOptions{
		Events: events, MaxCollective: totalColl, MaxStep: steps - 1,
		Stragglers: 1, MaxMult: 3,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "world: %d ranks, %d steps (%d octants/rank/step), checkpoint every %d steps\n",
		p, steps, perRank, copts.Every)
	fmt.Fprintf(cfg.Out, "golden: digest %016x over %d collectives\n", golden, totalColl)
	fmt.Fprintf(cfg.Out, "schedule (seed %d): %d events, %d straggler(s)\n",
		cfg.Seed, len(plan.Events), len(plan.Stragglers))
	for i, ev := range plan.Events {
		unit := "collective"
		if ev.Kind == fault.ChaosDrain {
			unit = "step"
		}
		fmt.Fprintf(cfg.Out, "  event %d: %s rank %d at %s %d\n", i, ev.Kind, ev.Rank, unit, ev.At)
	}
	fmt.Fprintln(cfg.Out)

	mem := ckpt.NewMemStore()
	restores := 0
	var finalDigest uint64
	completed := false
	for attempt := 0; attempt <= len(plan.Events); attempt++ {
		ev := plan.Attempt(attempt)
		snap, err := mem.Latest()
		if err != nil {
			return fmt.Errorf("chaos: checkpoint store corrupt: %w", err)
		}
		if snap == nil {
			fmt.Fprintf(cfg.Out, "attempt %d: fresh start\n", attempt)
		} else {
			fmt.Fprintf(cfg.Out, "attempt %d: restored from epoch %d (digest so far %016x)\n",
				attempt, snap.Epoch, snap.Digest)
		}

		aopts := copts
		aopts.Saver = mem
		if ev != nil && ev.Kind == fault.ChaosDrain {
			ev := ev
			aopts.StepDone = func(c *comm.Comm, step int, seq uint64) bool {
				return !ev.Drains(c.Rank(), step)
			}
		}
		fp := &fault.Plan{Stragglers: plan.Stragglers}
		if ev != nil && ev.Kind == fault.ChaosKill {
			fp.Kills = []fault.Kill{{Rank: ev.Rank, AtCollective: ev.At}}
		}

		var digest uint64
		body := func(c *comm.Comm) error {
			res := ckpt.Fresh()
			if snap != nil {
				var err error
				if res, err = ckpt.ResumeFrom(snap, c.Rank()); err != nil {
					return err
				}
			}
			out, err := ckpt.RunCampaign(c, res, aopts)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				digest = out.Digest
			}
			return nil
		}
		// No second watchdog: fault.Run leaves the checked runtime's stall
		// watchdog armed, so a wedged attempt ends as a *comm.StallError,
		// which the switch below rejects as unstructured.
		_, runErr := fault.Run(p, m.CostModel(), fp, body)
		if runErr == nil {
			finalDigest = digest
			completed = true
			fmt.Fprintf(cfg.Out, "attempt %d: campaign completed: digest %016x\n", attempt, digest)
			break
		}
		// Print normalized fields, not the raw message: which survivor is
		// reported waiting (or which rank detects a failure first) is
		// schedule-dependent, and the transcript must stay byte-identical
		// across worker widths. The victim ranks themselves are seeded.
		var rf *comm.RankFailure
		var ab *comm.AbandonedError
		switch {
		case errors.As(runErr, &rf):
			fmt.Fprintf(cfg.Out, "attempt %d: structured failure: rank %d killed at its collective %d\n",
				attempt, rf.Rank, rf.Collective)
		case errors.As(runErr, &ab):
			fmt.Fprintf(cfg.Out, "attempt %d: structured failure: rank(s) %v drained, survivors abandoned\n",
				attempt, ab.Departed)
		default:
			return fmt.Errorf("chaos: attempt %d failed WITHOUT a structured error: %w", attempt, runErr)
		}
		restores++
	}
	if !completed {
		return fmt.Errorf("chaos: schedule exhausted after %d restores without a completed campaign", restores)
	}
	if finalDigest != golden {
		return fmt.Errorf("chaos: healed digest %016x != fault-free golden %016x", finalDigest, golden)
	}
	fmt.Fprintf(cfg.Out, "\ninvariants held: %d outage(s) survived, %d restore(s), %dB replayed from checkpoints, digest matches fault-free golden\n",
		restores, restores, mem.RestoredBytes())
	return nil
}
