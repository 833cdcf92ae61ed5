package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
	"optipart/internal/stats"
)

func init() {
	register("repart",
		"online AMR loop: incremental migration-aware repartitioning vs from-scratch OptiPart vs SampleSort", repartExperiment)
}

// repartExperiment drives the three strategies through one bit-identical
// refine/coarsen mesh history (a moving refinement front) and accounts, per
// step and cumulatively, for the two currencies of an online AMR loop: the
// model's predicted iteration time Tp and the bytes migrated to install
// each step's placement.
//
// The point being demonstrated: a from-scratch partitioner recomputes
// splitters with no memory of where the data lives, so even steps that
// barely perturb the balance move elements; the incremental path keeps
// every separator within tolerance, refines only the violated ones, and
// adopts a rebalance only when J = horizon·Tp + tw·movedBytes says the
// movement pays for itself — moving a fraction of the data at no higher
// cumulative J than from-scratch OptiPart, and at the default seed at no
// higher cumulative Tp (TestRepartSeedSweep covers other seeds).
func repartExperiment(cfg Config) error {
	paperNote(cfg,
		"not in the paper: extends §3.3's objective with ParMETIS-style adaptive repartitioning (migration charged at tw per byte)",
		"refine/coarsen campaign under a moving front; incremental OptiPart vs from-scratch OptiPart vs SampleSort")
	strategies, steps := repartCampaign(cfg)

	inc, scr, smp := strategies[0], strategies[1], strategies[2]
	fmt.Fprintf(cfg.Out, "\ncumulative moved: incremental %d, scratch %d (%s), samplesort %d (%s)\n",
		inc.cumMoved,
		scr.cumMoved, stats.Pct(float64(scr.cumMoved), float64(inc.cumMoved)),
		smp.cumMoved, stats.Pct(float64(smp.cumMoved), float64(inc.cumMoved)))
	fmt.Fprintf(cfg.Out, "cumulative Tp: incremental %.4g, scratch %.4g, samplesort %.4g\n",
		inc.cumTp, scr.cumTp, smp.cumTp)
	if !cfg.Quick {
		fmt.Fprintf(cfg.Out, "host wall time: incremental %.2fs, scratch %.2fs, samplesort %.2fs\n",
			inc.wallSec, scr.wallSec, smp.wallSec)
	}

	// Every strategy priced its placements.
	for _, str := range strategies {
		if str.cumTp <= 0 {
			return fmt.Errorf("repart: %s accumulated non-positive Tp", str.name)
		}
	}
	// The front genuinely shifts load: from-scratch repartitioning moves
	// data on most steps, so the comparison below is not vacuous.
	if scr.active*2 < steps {
		return fmt.Errorf("repart: front too mild — scratch moved data on only %d of %d steps", scr.active, steps)
	}
	// The headline: strictly fewer cumulative moved bytes than both
	// baselines, at equal or better cumulative Tp than from-scratch OptiPart.
	if inc.cumMoved >= scr.cumMoved {
		return fmt.Errorf("repart: incremental moved %d elements, from-scratch %d — want strictly fewer",
			inc.cumMoved, scr.cumMoved)
	}
	if inc.cumTp > scr.cumTp {
		return fmt.Errorf("repart: incremental cumulative Tp %.6g worse than from-scratch %.6g",
			inc.cumTp, scr.cumTp)
	}
	// SampleSort rebalances exactly every step, so it also moves little
	// under a slow front — but with no surface or machine awareness it pays
	// for the balance in boundary exchange: its Tp must be the worst.
	if smp.cumTp <= inc.cumTp || smp.cumTp <= scr.cumTp {
		return fmt.Errorf("repart: samplesort cumulative Tp %.6g not worse than both optipart strategies (%.6g, %.6g)",
			smp.cumTp, inc.cumTp, scr.cumTp)
	}
	return nil
}

// repartStrategy is one strategy's running totals over a repart campaign.
type repartStrategy struct {
	name                          string
	sp                            *partition.Splitters
	active                        int // steps that moved data
	cumMoved                      int64
	cumTp, cumJ, cumTime, wallSec float64
}

// repartCampaign drives the incremental, scratch and samplesort strategies,
// in that order, through cfg's mesh history and prints the per-step table
// to cfg.Out. It returns the strategies' totals and the step count.
func repartCampaign(cfg Config) ([]*repartStrategy, int) {
	// Titan's interconnect (the paper's leadership machine) is the natural
	// setting for an adaptive loop: migration is cheap enough that the
	// J-objective actually faces a trade instead of vetoing every move the
	// way a 10 GbE commodity network does.
	m := machine.Titan()
	p, seeds, depth, steps := 16, 1500, uint8(8), 12
	// The front amplifies refinement inside the hotspot octant and
	// coarsening behind it; the base fractions are tuned so the total mesh
	// size stays roughly stationary while the resolution peak marches.
	refineFrac, coarsenFrac := 0.008, 0.010
	// Horizon is the number of solver iterations a placement serves before
	// the next regrid; the J = horizon·Tp + tw·movedBytes trade is priced
	// per regrid. Implicit AMR solvers run hundreds of matvecs between
	// regrids, so the model is willing to pay for movement that a short
	// horizon would veto.
	const horizon = 240.0
	if cfg.Quick {
		p, seeds, depth, steps = 8, 300, 7, 10
	}
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := octree.Balance21(octree.AdaptiveMesh(rng, seeds, 3, octree.Normal, depth)).WithCurve(curve).Leaves
	ev := octree.NewEvolver(curve, cfg.Seed+5, start)
	ev.RefineBias, ev.CoarsenBias = octree.FrontBias(3, 2, 8, 0.1)

	// The mesh history is a pure function of the seed — every strategy sees
	// the same meshes regardless of its placements.
	meshes := make([][]sfc.Key, steps+1)
	meshes[0] = append([]sfc.Key(nil), ev.Leaves()...)
	for s := 1; s <= steps; s++ {
		ev.Step(refineFrac, coarsenFrac)
		meshes[s] = append([]sfc.Key(nil), ev.Leaves()...)
	}

	// All strategies start from the same placement: model-driven OptiPart on
	// the initial mesh.
	var sp0 *partition.Splitters
	comm.Run(p, m.CostModel(), func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range meshes[0] {
			if i%p == c.Rank() {
				local = append(local, k)
			}
		}
		res := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: partition.ModelDriven, Machine: m, SkipExchange: true,
		})
		if c.Rank() == 0 {
			sp0 = res.Splitters
		}
	})

	// stepOutcome is one strategy's accounting for one mesh step.
	type stepOutcome struct {
		next  *partition.Splitters
		moved int64
		tp    float64
		time  float64 // modeled seconds, including the migration exchange
	}
	localUnder := func(sp *partition.Splitters, mesh []sfc.Key, r int) []sfc.Key {
		ranges := sp.Ranges(mesh)
		return append([]sfc.Key(nil), mesh[ranges[r]:ranges[r+1]]...)
	}
	runStep := func(name string, sp *partition.Splitters, mesh []sfc.Key) stepOutcome {
		var out stepOutcome
		st := comm.Run(p, m.CostModel(), func(c *comm.Comm) {
			local := localUnder(sp, mesh, c.Rank())
			switch name {
			case "incremental":
				rr := partition.Repartition(c, local, partition.RepartOptions{
					Options: partition.Options{Curve: curve, Machine: m, Tol: 0.03},
					Prior:   sp,
					Horizon: horizon,
				})
				if c.Rank() == 0 {
					out.next, out.moved, out.tp = rr.Splitters, rr.MovedElements, rr.Predicted
				}
			case "scratch":
				res := partition.Partition(c, local, partition.Options{
					Curve: curve, Mode: partition.ModelDriven, Machine: m,
				})
				moved := partition.MovedElements(c, local, sp, res.Splitters)
				if c.Rank() == 0 {
					out.next, out.moved, out.tp = res.Splitters, moved, res.Predicted
				}
			case "samplesort":
				mine := psort.SampleSort(c, local, curve)
				nsp := partition.SplittersFromDistribution(c, curve, mine)
				q := partition.EvaluateQuality(c, curve, mine, nsp)
				moved := partition.MovedElements(c, local, sp, nsp)
				if c.Rank() == 0 {
					out.next, out.moved = nsp, moved
					out.tp = q.PredictKernel(m, machine.DefaultAlpha, machine.GhostPayloadBytes)
				}
			}
		})
		out.time = st.Time()
		return out
	}

	strategies := []*repartStrategy{
		{name: "incremental", sp: sp0},
		{name: "scratch", sp: sp0},
		{name: "samplesort", sp: sp0},
	}

	table := stats.NewTable(
		fmt.Sprintf("repartitioning a moving front (%d ranks, %d→%d octants, %d steps)",
			p, len(meshes[0]), len(meshes[steps]), steps),
		"step", "strategy", "moved", "cum moved", "cum MB", "Tp", "cum Tp", "time(s)")
	for s := 1; s <= steps; s++ {
		for _, str := range strategies {
			var wall time.Time
			if !cfg.Quick {
				//lint:ignore nondeterminism host wall time is reported only in full runs, never in golden (quick) transcripts
				wall = time.Now()
			}
			out := runStep(str.name, str.sp, meshes[s])
			if !cfg.Quick {
				//lint:ignore nondeterminism same full-run-only wall clock as above
				str.wallSec += time.Since(wall).Seconds()
			}
			str.sp = out.next
			str.cumMoved += out.moved
			str.cumTp += out.tp
			str.cumJ += horizon*out.tp + m.MigrationCost(out.moved*int64(machine.GhostPayloadBytes))
			str.cumTime += out.time
			if out.moved > 0 {
				str.active++
			}
			table.Add(s, str.name, out.moved, str.cumMoved,
				fmt.Sprintf("%.1f", float64(str.cumMoved)*float64(machine.GhostPayloadBytes)/(1<<20)),
				fmt.Sprintf("%.4g", out.tp), fmt.Sprintf("%.4g", str.cumTp),
				fmt.Sprintf("%.4g", str.cumTime))
		}
	}
	table.Fprint(cfg.Out)
	return strategies, steps
}
