package experiments

import (
	"errors"
	"fmt"

	"optipart/internal/comm"
	"optipart/internal/fault"
	"optipart/internal/fem"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
	"optipart/internal/stats"
)

func init() {
	register("faults",
		"rank-failure recovery: kill a rank mid-matvec, repartition with OptiPart vs SampleSort redistribution", faultsExperiment)
}

// faultsExperiment is the recovery-by-repartition campaign. The paper's
// pitch is that SFC partitioning is cheap enough to re-run continuously as
// the mesh adapts; this experiment exercises the same loop with a machine
// fault as the trigger instead of refinement:
//
//  1. an AMR matvec campaign runs on p ranks under the checked runtime
//     with a deterministic fault plan that kills one rank mid-loop;
//  2. survivors observe the structured RankFailure (no hang), the dead
//     rank's octants are absorbed by its curve-neighbor — recreating the
//     imbalanced state a checkpoint restart would produce;
//  3. the p-1 survivors repartition, either with the existing OptiPart
//     machinery (model-driven, machine- and application-aware) or with a
//     from-scratch SampleSort redistribution (the Dendro baseline), and
//     the campaign reports time-to-recover and post-recovery Wmax/Cmax.
//
// Everything is deterministic given the seed: the failure step, the
// recovery times, and the post-recovery qualities reproduce bit-identically.
func faultsExperiment(cfg Config) error {
	paperNote(cfg,
		"not in the paper: fault tolerance extends §3's repartitioning loop with machine faults as the trigger",
		"matvec campaign on the Clemson-32 model; one rank killed mid-loop; OptiPart vs SampleSort recovery on the survivors")

	m := machine.Clemson32()
	p, seeds, depth, iters := 16, 1500, uint8(8), 40
	if cfg.Quick {
		p, seeds, depth, iters = 8, 200, 7, 10
	}
	spec := CampaignSpec{
		Machine: m, P: p, Kind: sfc.Hilbert,
		MeshSeeds: seeds, MeshDepth: depth, Dist: octree.Normal,
		Mode: partition.ModelDriven, Iters: iters, Seed: cfg.Seed,
	}
	tree, curve := buildCampaignMesh(spec)
	killRank := p / 3

	// Initial partition: the healthy steady state before the fault.
	locals := make([][]sfc.Key, p)
	baseStats := comm.Run(p, m.CostModel(), func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range tree.Leaves {
			if i%p == c.Rank() {
				local = append(local, k)
			}
		}
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: spec.Mode, Machine: m,
		})
		locals[c.Rank()] = res.Local
	})
	total := tree.Len()

	// Probe run: replay the campaign healthily under the checked runtime to
	// learn the kill rank's collective indices at loop start and end, so the
	// kill lands exactly mid-loop regardless of how many collectives setup
	// needs. Deterministic, so the probe predicts the faulted run exactly.
	var loopStart, loopEnd int
	body := func(c *comm.Comm) error {
		// fem.Setup needs splitters for the ghost exchange; reconstruct
		// them from the distribution the healthy partition left behind.
		sp := partition.SplittersFromDistribution(c, curve, locals[c.Rank()])
		prob := fem.Setup(c, locals[c.Rank()], sp)
		if c.Rank() == killRank {
			loopStart = c.CollectiveIndex()
		}
		fem.RunCampaign(c, prob, iters, spec.Seed+1)
		if c.Rank() == killRank {
			loopEnd = c.CollectiveIndex()
		}
		return nil
	}
	if _, err := comm.RunChecked(p, m.CostModel(), body); err != nil {
		return fmt.Errorf("faults: healthy probe run failed: %w", err)
	}
	killAt := (loopStart + loopEnd) / 2

	// The faulted run: same campaign, with the kill injected.
	plan := &fault.Plan{Kills: []fault.Kill{{Rank: killRank, AtCollective: killAt}}}
	failStats, err := fault.Run(p, m.CostModel(), plan, body)
	if err == nil {
		return fmt.Errorf("faults: injected kill did not surface")
	}
	var rf *comm.RankFailure
	if !errors.As(err, &rf) {
		return fmt.Errorf("faults: want *comm.RankFailure, got %w", err)
	}
	var killed *fault.Killed
	if !errors.As(err, &killed) || rf.Rank != killRank {
		return fmt.Errorf("faults: failure misattributed: %w", err)
	}
	detectT := failStats.Time()
	fmt.Fprintf(cfg.Out, "failure injected: %v\n", err)
	fmt.Fprintf(cfg.Out, "world torn down at modeled t=%.6gs (loop spans collectives %d..%d; partition took %.6gs)\n\n",
		detectT, loopStart, loopEnd, baseStats.Time())

	// Survivors absorb the dead rank's octants. The curve-neighbor below
	// the dead rank takes them, keeping every surviving array sorted and
	// contiguous — the state a neighbor-checkpoint restart hands back.
	absorber := killRank - 1
	survivors := make([][]sfc.Key, 0, p-1)
	for r := 0; r < p; r++ {
		switch r {
		case killRank:
		case absorber:
			merged := append(append([]sfc.Key{}, locals[r]...), locals[killRank]...)
			survivors = append(survivors, merged)
		default:
			survivors = append(survivors, locals[r])
		}
	}
	interimWmax := 0
	for _, s := range survivors {
		if len(s) > interimWmax {
			interimWmax = len(s)
		}
	}
	fmt.Fprintf(cfg.Out, "rank %d's %d octants absorbed by rank %d: interim Wmax %d (ideal %d on %d survivors)\n\n",
		killRank, len(locals[killRank]), absorber, interimWmax, total/(p-1), p-1)

	type recovery struct {
		name      string
		time      float64
		quality   partition.Quality
		predicted float64
	}
	runRecovery := func(name string, redistribute func(c *comm.Comm, local []sfc.Key) ([]sfc.Key, *partition.Splitters, *partition.Quality, float64)) (recovery, error) {
		rec := recovery{name: name}
		st, err := comm.RunChecked(p-1, m.CostModel(), func(c *comm.Comm) error {
			mine, sp, q, pred := redistribute(c, survivors[c.Rank()])
			// Recovery is complete once the data is placed and the halo is
			// rebuilt: the campaign can resume matvecs.
			c.SetPhase("ghost")
			fem.Setup(c, mine, sp)
			if c.Rank() == 0 {
				rec.quality, rec.predicted = *q, pred
			}
			return nil
		})
		if err != nil {
			return rec, fmt.Errorf("faults: %s recovery failed: %w", name, err)
		}
		rec.time = st.Time()
		return rec, nil
	}

	opti, err := runRecovery("optipart-repartition", func(c *comm.Comm, local []sfc.Key) ([]sfc.Key, *partition.Splitters, *partition.Quality, float64) {
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: partition.ModelDriven, Machine: m,
		})
		return res.Local, res.Splitters, &res.Quality, res.Predicted
	})
	if err != nil {
		return err
	}
	samp, err := runRecovery("samplesort-redistribution", func(c *comm.Comm, local []sfc.Key) ([]sfc.Key, *partition.Splitters, *partition.Quality, float64) {
		mine := psort.SampleSort(c, local, curve)
		sp := partition.SplittersFromDistribution(c, curve, mine)
		q := partition.EvaluateQuality(c, curve, mine, sp)
		return mine, sp, &q, q.Predict(m, machine.DefaultAlpha)
	})
	if err != nil {
		return err
	}

	table := stats.NewTable(fmt.Sprintf("recovery on %d survivors (%d octants)", p-1, total),
		"strategy", "time-to-recover(s)", "Wmax", "Cmax", "λ", "predicted/iter(s)")
	for _, rec := range []recovery{opti, samp} {
		table.Add(rec.name, rec.time, rec.quality.Wmax, rec.quality.Cmax,
			rec.quality.LoadImbalance(), rec.predicted)
	}
	table.Fprint(cfg.Out)

	// Shape assertions: both recoveries must produce complete, non-empty
	// partitions, and OptiPart — which minimizes the model — must not be
	// predicted-worse than the model-oblivious baseline.
	for _, rec := range []recovery{opti, samp} {
		if rec.quality.N != int64(total) {
			return fmt.Errorf("faults: %s lost octants: %d of %d", rec.name, rec.quality.N, total)
		}
		if rec.quality.Wmin == 0 {
			return fmt.Errorf("faults: %s left a survivor empty", rec.name)
		}
		if int(rec.quality.Wmax) >= interimWmax {
			return fmt.Errorf("faults: %s did not improve on the absorbed state (Wmax %d >= %d)",
				rec.name, rec.quality.Wmax, interimWmax)
		}
	}
	if opti.predicted > samp.predicted*1.05 {
		return fmt.Errorf("faults: OptiPart recovery predicted-worse than SampleSort: %g vs %g",
			opti.predicted, samp.predicted)
	}
	fmt.Fprintf(cfg.Out, "\nrecovery vs failure: detectT=%.6gs, optipart recovery %.6gs, samplesort %.6gs (%s)\n",
		detectT, opti.time, samp.time, stats.Pct(samp.time, opti.time))
	return nil
}
