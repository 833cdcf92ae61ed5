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
	register("losses",
		"unreliable network: drop-rate sweep of the matvec campaign, OptiPart vs equal-weight SampleSort retransmission cost", lossesExperiment)
}

// lossesExperiment runs the matvec campaign over an unreliable network and
// measures what reliable delivery costs each partitioning strategy. The
// transport drops frames at a swept per-frame rate; every lost frame is
// retransmitted after a timeout, so the application always computes the
// same answer — loss shows up only as retransmitted traffic and stretched
// modeled time.
//
// The point being demonstrated: frames are lost in proportion to bytes on
// the wire, and bytes on the wire are the boundary bytes the partitioner
// controls. OptiPart's model-driven partitions, which shrink Cmax per
// Eq. (3), therefore retransmit less and degrade more slowly with the drop
// rate than the equal-weight SampleSort baseline — the machine-aware
// objective pays off twice on a lossy network, once per transmission and
// once per retransmission.
func lossesExperiment(cfg Config) error {
	paperNote(cfg,
		"not in the paper: extends §3.3's cost model with a lossy-network term (retransmissions ∝ boundary bytes)",
		"matvec campaign on the Clemson-32 model under uniform per-frame loss; OptiPart vs equal-weight SampleSort")

	m := machine.Clemson32()
	p, seeds, depth, iters := 16, 1500, uint8(8), 30
	// Each sweep point is a (drop, corrupt) pair; by default corruption
	// rides along at a quarter of the drop rate to keep the checksum path
	// honest.
	type lossPoint struct{ drop, corrupt float64 }
	points := []lossPoint{{0, 0}, {0.02, 0.005}, {0.05, 0.0125}, {0.1, 0.025}, {0.2, 0.05}}
	if cfg.Quick {
		p, seeds, depth, iters = 8, 200, 7, 8
		points = []lossPoint{{0, 0}, {0.1, 0.025}}
	}
	// The retransmit cap is the run's loss tolerance: a frame that fails
	// cap+1 attempts declares its link dead. The sweep provisions the cap
	// for its worst drop rate — the campaign offers ~10^6 frames, so the
	// per-frame give-up probability drop^(cap+1) must be well under 1e-6.
	// An undersized cap is demonstrated (and asserted) separately below.
	retries := 16
	// A -loss/-corrupt/-retry overlay from the CLI replaces the default
	// ladder with the requested point (plus the lossless baseline). The
	// ladder's monotonicity assertions assume the default rates, so a
	// custom point keeps only the reliability and determinism checks.
	custom := !cfg.Net.Empty()
	if custom {
		if err := cfg.Net.Validate(); err != nil {
			return err
		}
		points = []lossPoint{{0, 0}, {cfg.Net.Loss, cfg.Net.Corrupt}}
		if cfg.Net.Retry > 0 {
			retries = cfg.Net.Retry
		}
	}
	spec := CampaignSpec{
		Machine: m, P: p, Kind: sfc.Hilbert,
		MeshSeeds: seeds, MeshDepth: depth, Dist: octree.Normal,
		Mode: partition.ModelDriven, Iters: iters, Seed: cfg.Seed,
	}
	tree, curve := buildCampaignMesh(spec)

	type outcome struct {
		st    *comm.Stats
		moved int64 // campaign-wide ghost elements exchanged (result digest)
		cmax  int64
	}
	// makeBody builds the campaign body for one strategy; every run of the
	// same body is deterministic, so differences across rates are the
	// network's doing alone.
	makeBody := func(opti bool, out *outcome) func(c *comm.Comm) error {
		return func(c *comm.Comm) error {
			var local []sfc.Key
			for i, k := range tree.Leaves {
				if i%p == c.Rank() {
					local = append(local, k)
				}
			}
			var mine []sfc.Key
			var sp *partition.Splitters
			var cmax int64
			if opti {
				res := partition.Partition(c, local, partition.Options{
					Curve: curve, Mode: partition.ModelDriven, Machine: m,
				})
				mine, sp, cmax = res.Local, res.Splitters, res.Quality.Cmax
			} else {
				mine = psort.SampleSort(c, local, curve)
				sp = partition.SplittersFromDistribution(c, curve, mine)
				cmax = partition.EvaluateQuality(c, curve, mine, sp).Cmax
			}
			prob := fem.Setup(c, mine, sp)
			res := fem.RunCampaign(c, prob, iters, spec.Seed+1)
			if c.Rank() == 0 {
				out.moved, out.cmax = res.ElementsMoved, cmax
			}
			return nil
		}
	}

	runPoint := func(opti bool, pt lossPoint, retries int) (outcome, error) {
		var out outcome
		plan := &fault.Plan{Net: fault.UniformLoss(cfg.Seed+7, pt.drop, pt.corrupt)}
		plan.Net.Transport.MaxRetries = retries
		st, err := fault.Run(p, m.CostModel(), plan, makeBody(opti, &out))
		if err != nil {
			return out, fmt.Errorf("losses: campaign at drop=%g failed: %w", pt.drop, err)
		}
		out.st = st
		return out, nil
	}

	type strategy struct {
		name string
		opti bool
		runs map[lossPoint]outcome
	}
	strategies := []*strategy{
		{name: "optipart-modeldriven", opti: true, runs: map[lossPoint]outcome{}},
		{name: "samplesort-equalweight", opti: false, runs: map[lossPoint]outcome{}},
	}

	table := stats.NewTable(
		fmt.Sprintf("matvec campaign under loss (%d ranks, %d octants, %d iters)", p, tree.Len(), iters),
		"drop", "corrupt", "strategy", "Cmax", "retransmits", "retry-bytes", "dup", "time(s)", "slowdown")
	for _, s := range strategies {
		for _, pt := range points {
			out, err := runPoint(s.opti, pt, retries)
			if err != nil {
				return err
			}
			s.runs[pt] = out
			base := s.runs[points[0]].st.Time()
			table.Add(fmt.Sprintf("%g%%", pt.drop*100), fmt.Sprintf("%g%%", pt.corrupt*100),
				s.name, out.cmax,
				out.st.TotalRetransmits(), out.st.TotalRetryBytes(),
				out.st.TotalDuplicates(), out.st.Time(),
				fmt.Sprintf("%.3fx", out.st.Time()/base))
		}
	}
	table.Fprint(cfg.Out)

	// Assertions, in the order the transport's guarantees layer up.
	for _, s := range strategies {
		clean := s.runs[points[0]]
		if clean.st.TotalRetransmits() != 0 || clean.st.TotalRetryBytes() != 0 {
			return fmt.Errorf("losses: %s retransmitted on a lossless network", s.name)
		}
		for _, pt := range points[1:] {
			lossy := s.runs[pt]
			// Reliable delivery means loss never changes the computation.
			if lossy.moved != clean.moved || lossy.cmax != clean.cmax {
				return fmt.Errorf("losses: %s computed different results under drop=%g (moved %d vs %d)",
					s.name, pt.drop, lossy.moved, clean.moved)
			}
			if custom {
				continue // a user-chosen point may be too mild to retransmit
			}
			if lossy.st.TotalRetransmits() == 0 {
				return fmt.Errorf("losses: %s saw no retransmissions at drop=%g", s.name, pt.drop)
			}
			if lossy.st.Time() <= clean.st.Time() {
				return fmt.Errorf("losses: %s not slowed by drop=%g", s.name, pt.drop)
			}
		}
		// Retransmitted traffic grows with the drop rate.
		for i := 2; i < len(points); i++ {
			if s.runs[points[i]].st.TotalRetryBytes() <= s.runs[points[i-1]].st.TotalRetryBytes() {
				return fmt.Errorf("losses: %s retry bytes not increasing in drop rate (%g vs %g)",
					s.name, points[i-1].drop, points[i].drop)
			}
		}
	}

	// Determinism regression: replaying a lossy point reproduces the
	// timeline bit-exactly.
	worst := points[len(points)-1]
	replay, err := runPoint(true, worst, retries)
	if err != nil {
		return err
	}
	first := strategies[0].runs[worst]
	if replay.st.Time() != first.st.Time() ||
		replay.st.TotalRetransmits() != first.st.TotalRetransmits() ||
		replay.st.TotalBytes() != first.st.TotalBytes() {
		return fmt.Errorf("losses: lossy campaign not deterministic: %.9g/%d vs %.9g/%d",
			replay.st.Time(), replay.st.TotalRetransmits(), first.st.Time(), first.st.TotalRetransmits())
	}

	// The headline comparison: at every drop rate the model-driven
	// partition retransmits no more than the equal-weight baseline.
	opti, samp := strategies[0], strategies[1]
	fmt.Fprintf(cfg.Out, "\nretry cost at worst drop rate (%.0f%%): optipart %d bytes, samplesort %d bytes (%s)\n",
		worst.drop*100,
		opti.runs[worst].st.TotalRetryBytes(),
		samp.runs[worst].st.TotalRetryBytes(),
		stats.Pct(float64(samp.runs[worst].st.TotalRetryBytes()),
			float64(opti.runs[worst].st.TotalRetryBytes())))
	if custom {
		// The ladder assertions below assume the default sweep; a custom
		// point has made its reliability and determinism cases already.
		return nil
	}
	for _, pt := range points[1:] {
		or, sr := opti.runs[pt], samp.runs[pt]
		if or.st.TotalRetryBytes() > sr.st.TotalRetryBytes() {
			return fmt.Errorf("losses: optipart retransmitted more than samplesort at drop=%g: %d > %d bytes",
				pt.drop, or.st.TotalRetryBytes(), sr.st.TotalRetryBytes())
		}
		if or.st.Time() > sr.st.Time() {
			return fmt.Errorf("losses: optipart slower than samplesort at drop=%g: %g > %g",
				pt.drop, or.st.Time(), sr.st.Time())
		}
	}

	// Tolerance dimension: the same worst-case drop rate with an undersized
	// retransmit cap must not hang and must not deliver wrong data — it
	// escalates to a structured link failure naming the dead link, the
	// trigger for the recovery-by-repartition path of the faults experiment.
	_, err = runPoint(true, worst, 1)
	var lf *comm.LinkFailure
	if !errors.As(err, &lf) {
		return fmt.Errorf("losses: drop=%g with retransmit cap 1: want *comm.LinkFailure, got %w", worst.drop, err)
	}
	fmt.Fprintf(cfg.Out, "undersized tolerance (cap 1 at %.0f%% drop) escalates structurally: %v\n", worst.drop*100, lf)
	return nil
}
