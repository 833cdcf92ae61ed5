package main

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"optipart/internal/comm"
	"optipart/internal/fault"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
	"optipart/internal/stats"
)

// runLocal runs the rank program on a world of p in-process ranks under the
// checked runtime, with the fault plan's hooks and, when trace is set, a
// timeline, and prints the result to w. A world the plan kills prints its
// failure and the modeled time at teardown, and returns the failure. A fired
// kill always fails the world, so a plan with a kill whose world succeeds
// prints the report and returns an error: the run ended before the kill.
func runLocal(w io.Writer, pr program, p int, plan *fault.Plan, trace bool) error {
	m, _, _, _, err := pr.parse()
	if err != nil {
		return err
	}
	var out outcome
	body, err := pr.rankBody(p, fresh(), &out)
	if err != nil {
		return err
	}
	opts := comm.CheckedOptions{Hooks: plan.Hooks()}
	if plan.Empty() {
		// As comm.Run: no stall watchdog, because a healthy rank may
		// compute longer than its timeout between two collectives.
		opts.StallTimeout = -1
	}
	if trace {
		opts.Trace = &comm.Trace{}
	}
	st, err := comm.RunCheckedOpts(p, m.CostModel(), opts, body)
	if err != nil {
		pr.header(w, p)
		fmt.Fprintf(w, "world failed: %v\n", err)
		if st != nil {
			fmt.Fprintf(w, "modeled time at teardown: %.6g s\n", st.Time())
		}
		return err
	}
	pr.report(w, p, st, out)
	if opts.Trace != nil {
		fmt.Fprintln(w)
		comm.RenderTimeline(w, opts.Trace, p, 100)
	}
	if len(plan.Kills) > 0 {
		k := plan.Kills[0]
		return fmt.Errorf("-kill %d@%d never fired: the run ended before rank %d's collective %d", k.Rank, k.AtCollective, k.Rank, k.AtCollective)
	}
	return nil
}

// runRepartLoop drives the -repart-steps online AMR loop: a seeded adaptive
// mesh (refined around -n/64 random points, 2:1 balanced) evolves under a
// moving refinement front, the initial placement comes from model-driven
// OptiPart, and every subsequent step is repartitioned incrementally from
// the placement in force — in-tolerance separators keep their keys, and a
// rebalance is adopted only when J = horizon·Tp + tw·movedBytes says the
// movement pays for itself. The table accounts both currencies per step.
func runRepartLoop(w io.Writer, pr program, p, steps int, refineFrac float64) error {
	m, curve, _, d, err := pr.parse()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(pr.seed))
	tree := octree.Balance21(octree.AdaptiveMesh(rng, max(pr.n/64, 1), 3, d, 8)).WithCurve(curve)
	ev := octree.NewEvolver(curve, pr.seed+1, tree.Leaves)
	ev.RefineBias, ev.CoarsenBias = octree.FrontBias(3, 2, 8, 0.1)
	// Coarsening drains slightly faster than refinement feeds so the mesh
	// stays near its seed size while the resolution peak marches.
	coarsenFrac := refineFrac * 1.25
	// Horizon prices each migration against the iterations the placement
	// serves before the next regrid; implicit AMR solvers run hundreds of
	// matvecs between regrids (same setting as `experiments -run repart`).
	const horizon = 240.0

	mesh := append([]sfc.Key(nil), ev.Leaves()...)
	var sp *partition.Splitters
	comm.Run(p, m.CostModel(), func(c *comm.Comm) {
		lo, hi := c.Rank()*len(mesh)/p, (c.Rank()+1)*len(mesh)/p
		res := partition.Partition(c, append([]sfc.Key(nil), mesh[lo:hi]...), partition.Options{
			Curve: curve, Mode: partition.ModelDriven, Machine: m, Alpha: pr.alpha, SkipExchange: true,
		})
		if c.Rank() == 0 {
			sp = res.Splitters
		}
	})

	fmt.Fprintf(w, "machine %s | curve %v | online repartition | %d starting octants on %d ranks, %d steps\n\n",
		m.Name, curve.Kind, len(mesh), p, steps)
	table := stats.NewTable("incremental repartitioning under a moving front",
		"step", "octants", "moved", "cum moved", "kept seps", "Tp", "cum Tp", "time(s)")
	var cumMoved int64
	var cumTp float64
	for s := 1; s <= steps; s++ {
		ev.Step(refineFrac, coarsenFrac)
		mesh = append(mesh[:0], ev.Leaves()...)
		ranges := sp.Ranges(mesh)
		var rr *partition.RepartResult
		st := comm.Run(p, m.CostModel(), func(c *comm.Comm) {
			local := append([]sfc.Key(nil), mesh[ranges[c.Rank()]:ranges[c.Rank()+1]]...)
			r := partition.Repartition(c, local, partition.RepartOptions{
				Options: partition.Options{Curve: curve, Machine: m, Tol: pr.tol, Alpha: pr.alpha, SkipExchange: true},
				Prior:   sp,
				Horizon: horizon,
			})
			if c.Rank() == 0 {
				rr = r
			}
		})
		sp = rr.Splitters
		cumMoved += rr.MovedElements
		cumTp += rr.Predicted
		table.Add(s, len(mesh), rr.MovedElements, cumMoved, rr.KeptSeps,
			fmt.Sprintf("%.4g", rr.Predicted), fmt.Sprintf("%.4g", cumTp),
			fmt.Sprintf("%.4g", st.Time()))
	}
	table.Fprint(w)
	fmt.Fprintf(w, "\ncumulative moved: %d elements (%.1f MB at %d B ghost payload)\n",
		cumMoved, float64(cumMoved)*float64(machine.GhostPayloadBytes)/(1<<20), machine.GhostPayloadBytes)
	return nil
}

// buildPlan builds the local fault plan from -kill (rank@k) and -straggler
// (rank@tcmult[,twmult]), range-checking every argument against the world
// size before any rank starts, instead of panicking or silently never
// matching.
func buildPlan(p int, kill, strag string) (*fault.Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("-p %d: need at least one rank", p)
	}
	plan := &fault.Plan{}
	if kill != "" {
		rank, at, err := parseKill(kill, 0, p)
		if err != nil {
			return nil, err
		}
		plan.Kills = append(plan.Kills, fault.Kill{Rank: rank, AtCollective: at})
	}
	if strag != "" {
		rank, mults, err := parseRankAt("straggler", strag, "tcmult[,twmult]", 0, p)
		if err != nil {
			return nil, err
		}
		s := fault.Straggler{Rank: rank, TcMult: 1, TwMult: 1}
		tc, tw, hasTw := strings.Cut(mults, ",")
		if s.TcMult, err = strconv.ParseFloat(tc, 64); err != nil {
			return nil, fmt.Errorf("-straggler %q: bad tc multiplier: %w", strag, err)
		}
		if hasTw {
			if s.TwMult, err = strconv.ParseFloat(tw, 64); err != nil {
				return nil, fmt.Errorf("-straggler %q: bad tw multiplier: %w", strag, err)
			}
		}
		if s.TcMult <= 0 || s.TwMult <= 0 {
			return nil, fmt.Errorf("-straggler %q: multipliers must be > 0", strag)
		}
		plan.Stragglers = append(plan.Stragglers, s)
	}
	return plan, nil
}

// maxWorkers is a sanity bound on -workers: the pool pins one OS thread per
// worker, so anything past a few times the host's GOMAXPROCS is a typo.
const maxWorkers = 1024

// validateWorkers range-checks -workers the way buildPlan checks the fault
// flags: fail with a usable message before any rank starts.
func validateWorkers(w int) error {
	if w < 1 {
		return fmt.Errorf("-workers %d: need at least one worker", w)
	}
	if w > maxWorkers {
		return fmt.Errorf("-workers %d: more than %d workers oversubscribes any host this simulator targets", w, maxWorkers)
	}
	return nil
}
