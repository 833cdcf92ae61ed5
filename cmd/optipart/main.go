// Command optipart partitions a randomly generated octree workload and
// reports the partition's quality under each strategy, so the tradeoff the
// paper describes can be inspected from the command line.
//
// Usage:
//
//	optipart -p 64 -n 200000 -machine Clemson-32 -curve hilbert -mode optipart
//	optipart -p 64 -n 200000 -mode flexible -tol 0.3
//	optipart -p 64 -n 200000 -kill 3@40 -straggler 5@2.5,1.5
//	optipart -p 16 -n 100000 -machine Titan -repart-steps 12 -refine-frac 0.008
//
// -repart-steps runs the online AMR loop instead of a single partition:
// the mesh evolves under a moving refinement front and each step is
// repartitioned incrementally from the previous placement, adopting a
// rebalance only when the migration-aware objective says the moved bytes
// pay for themselves. See also `experiments -run repart` for the campaign
// comparison against from-scratch partitioning.
//
// -kill and -straggler run the partition under the checked fault-injected
// runtime: a killed rank tears the world down with a structured error
// instead of hanging it, and stragglers stretch the affected ranks'
// modeled time.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"

	"optipart"
	"optipart/internal/comm"
	"optipart/internal/fault"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
	"optipart/internal/stats"
)

func main() {
	var (
		p        = flag.Int("p", 32, "number of ranks")
		n        = flag.Int("n", 100000, "total number of elements")
		mname    = flag.String("machine", "Clemson-32", "machine model: Titan, Stampede, Clemson-32, Wisconsin-8")
		curveArg = flag.String("curve", "hilbert", "space-filling curve: morton or hilbert")
		mode     = flag.String("mode", "optipart", "partitioning mode: equal, flexible, optipart")
		tol      = flag.Float64("tol", 0.3, "tolerance for -mode flexible and the incremental keep window of -repart-steps")
		dist     = flag.String("dist", "normal", "element distribution: uniform, normal, lognormal")
		seed     = flag.Int64("seed", 1, "RNG seed")
		alpha    = flag.Float64("alpha", optipart.DefaultAlpha, "memory accesses per unit work (application model)")
		trace    = flag.Bool("trace", false, "print an ASCII timeline of the run (compute vs collective per rank)")
		kill     = flag.String("kill", "", "kill a rank at its k-th collective, as rank@k (uses the checked runtime)")
		strag    = flag.String("straggler", "", "degrade a rank, as rank@tcmult[,twmult] (uses the checked runtime)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width shared by all ranks (1 forces the serial paths; results are identical at every width)")
		rsteps   = flag.Int("repart-steps", 0, "run an online AMR loop: evolve an adaptive mesh this many refine/coarsen steps under a moving front and repartition incrementally each step (0 = single-shot partition)")
		rfrac    = flag.Float64("refine-frac", 0.008, "per-leaf refinement fraction per step, in (0,1) (coarsening drains at 1.25x behind the front; only with -repart-steps)")
	)
	flag.Parse()

	if err := validateWorkers(*workers); err != nil {
		fatal(err)
	}
	optipart.SetWorkers(*workers)

	m, kind, pmode, d, err := parseNames(*mname, *curveArg, *mode, *dist)
	if err != nil {
		fatal(err)
	}
	curve := optipart.NewCurve(kind, 3)

	if *rsteps < 0 {
		fatal(fmt.Errorf("-repart-steps %d: must be >= 0", *rsteps))
	}
	if *rfrac <= 0 || *rfrac >= 1 {
		fatal(fmt.Errorf("-refine-frac %g: must be in (0,1)", *rfrac))
	}
	if *rsteps > 0 {
		if *kill != "" || *strag != "" {
			fatal(fmt.Errorf("-repart-steps does not combine with the fault-injection flags; use `experiments -run faults` for failure campaigns"))
		}
		runRepartLoop(*p, *n, m, curve, kind, d, *seed, *rsteps, *rfrac, *tol, *alpha)
		return
	}

	plan, err := buildPlan(*p, *kill, *strag)
	if err != nil {
		fatal(err)
	}

	perRank := *n / *p
	var res *optipart.Result
	body := func(c *optipart.Comm) {
		rng := rand.New(rand.NewSource(*seed + int64(c.Rank())))
		local := optipart.RandomKeys(rng, perRank, 3, d, 2, 18)
		r := optipart.Partition(c, local, optipart.Options{
			Curve: curve, Mode: pmode, Tol: *tol, Machine: m, Alpha: *alpha,
		})
		if c.Rank() == 0 {
			res = r
		}
	}
	var st *optipart.Stats
	var tr *optipart.Trace
	if !plan.Empty() {
		if *trace {
			tr = &optipart.Trace{}
		}
		opts := comm.CheckedOptions{Hooks: plan.Hooks(), Trace: tr}
		st, err = comm.RunCheckedOpts(*p, m.CostModel(), opts,
			func(c *optipart.Comm) error { body(c); return nil })
		if err != nil {
			fmt.Printf("machine %s | curve %v | mode %v | %d elements on %d ranks\n\n",
				m.Name, kind, pmode, *n, *p)
			fmt.Printf("world failed: %v\n", err)
			if st != nil {
				fmt.Printf("modeled time at teardown: %.6g s\n", st.Time())
			}
			os.Exit(1)
		}
	} else if *trace {
		st, tr = optipart.RunTraced(*p, m, body)
	} else {
		st = optipart.Run(*p, m, body)
	}

	fmt.Printf("machine %s | curve %v | mode %v | %d elements on %d ranks\n\n",
		m.Name, kind, pmode, *n, *p)
	table := stats.NewTable("partition quality",
		"metric", "value")
	table.Add("modeled partition time (s)", st.Time())
	table.Add("refinement rounds", res.Rounds)
	table.Add("achieved tolerance", res.AchievedTol)
	table.Add("Wmax", res.Quality.Wmax)
	table.Add("Wmin", res.Quality.Wmin)
	table.Add("load imbalance λ", res.Quality.LoadImbalance())
	table.Add("Cmax (boundary octants)", res.Quality.Cmax)
	table.Add("total boundary octants", res.Quality.Ctot)
	table.Add("predicted app step (s), Eq. (3)", res.Predicted)
	table.Fprint(os.Stdout)

	if tr != nil {
		fmt.Println()
		comm.RenderTimeline(os.Stdout, tr, *p, 100)
	}
}

// runRepartLoop drives the -repart-steps online AMR loop: a seeded adaptive
// mesh (refined around -n/64 random points, 2:1 balanced) evolves under a
// moving refinement front, the initial placement comes from model-driven
// OptiPart, and every subsequent step is repartitioned incrementally from
// the placement in force — in-tolerance separators keep their keys, and a
// rebalance is adopted only when J = horizon·Tp + tw·movedBytes says the
// movement pays for itself. The table accounts both currencies per step.
func runRepartLoop(p, n int, m optipart.Machine, curve *optipart.Curve, kind optipart.CurveKind,
	d optipart.Distribution, seed int64, steps int, refineFrac, tol, alpha float64) {
	rng := rand.New(rand.NewSource(seed))
	nSeeds := n / 64
	if nSeeds < 1 {
		nSeeds = 1
	}
	tree := optipart.Balance21(optipart.AdaptiveMesh(rng, nSeeds, 3, d, 8)).WithCurve(curve)
	ev := optipart.NewEvolver(curve, seed+1, tree.Leaves)
	ev.RefineBias, ev.CoarsenBias = optipart.FrontBias(3, 2, 8, 0.1)
	// Coarsening drains slightly faster than refinement feeds so the mesh
	// stays near its seed size while the resolution peak marches.
	coarsenFrac := refineFrac * 1.25
	// Horizon prices each migration against the iterations the placement
	// serves before the next regrid; implicit AMR solvers run hundreds of
	// matvecs between regrids (same setting as `experiments -run repart`).
	const horizon = 240.0

	mesh := append([]optipart.Key(nil), ev.Leaves()...)
	var sp *optipart.Splitters
	optipart.Run(p, m, func(c *optipart.Comm) {
		lo, hi := c.Rank()*len(mesh)/p, (c.Rank()+1)*len(mesh)/p
		res := optipart.Partition(c, append([]optipart.Key(nil), mesh[lo:hi]...), optipart.Options{
			Curve: curve, Mode: optipart.ModelDriven, Machine: m, Alpha: alpha, SkipExchange: true,
		})
		if c.Rank() == 0 {
			sp = res.Splitters
		}
	})

	fmt.Printf("machine %s | curve %v | online repartition | %d starting octants on %d ranks, %d steps\n\n",
		m.Name, kind, len(mesh), p, steps)
	table := stats.NewTable("incremental repartitioning under a moving front",
		"step", "octants", "moved", "cum moved", "kept seps", "Tp", "cum Tp", "time(s)")
	var cumMoved int64
	var cumTp float64
	for s := 1; s <= steps; s++ {
		ev.Step(refineFrac, coarsenFrac)
		mesh = append(mesh[:0], ev.Leaves()...)
		prior := sp
		ranges := prior.Ranges(mesh)
		var rr *optipart.RepartResult
		st := optipart.Run(p, m, func(c *optipart.Comm) {
			local := append([]optipart.Key(nil), mesh[ranges[c.Rank()]:ranges[c.Rank()+1]]...)
			r := optipart.Repartition(c, local, optipart.RepartOptions{
				Options: optipart.Options{Curve: curve, Machine: m, Tol: tol, Alpha: alpha, SkipExchange: true},
				Prior:   prior,
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
	table.Fprint(os.Stdout)
	fmt.Printf("\ncumulative moved: %d elements (%.1f MB at %d B ghost payload)\n",
		cumMoved, float64(cumMoved)*float64(optipart.GhostPayloadBytes)/(1<<20), optipart.GhostPayloadBytes)
}

// buildPlan builds and validates the fault plan from the -kill ("rank@k")
// and -straggler ("rank@tcmult[,twmult]") flags. Every argument is
// range-checked against the world size here so a typo fails with a usable
// message before any goroutines start, instead of panicking or silently
// never matching.
func buildPlan(p int, kill, strag string) (*fault.Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("-p %d: need at least one rank", p)
	}
	plan := &fault.Plan{}
	if kill != "" {
		rank, rest, err := splitRankAt(kill)
		if err != nil {
			return nil, fmt.Errorf("-kill %q: %w", kill, err)
		}
		if rank < 0 || rank >= p {
			return nil, fmt.Errorf("-kill %q: rank %d out of range [0,%d)", kill, rank, p)
		}
		at, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("-kill %q: bad collective index: %w", kill, err)
		}
		if at < 0 {
			return nil, fmt.Errorf("-kill %q: collective index must be >= 0", kill)
		}
		plan.Kills = append(plan.Kills, fault.Kill{Rank: rank, AtCollective: at})
	}
	if strag != "" {
		rank, rest, err := splitRankAt(strag)
		if err != nil {
			return nil, fmt.Errorf("-straggler %q: %w", strag, err)
		}
		if rank < 0 || rank >= p {
			return nil, fmt.Errorf("-straggler %q: rank %d out of range [0,%d)", strag, rank, p)
		}
		s := fault.Straggler{Rank: rank, TcMult: 1, TwMult: 1}
		parts := strings.SplitN(rest, ",", 2)
		if s.TcMult, err = strconv.ParseFloat(parts[0], 64); err != nil {
			return nil, fmt.Errorf("-straggler %q: bad tc multiplier: %w", strag, err)
		}
		if len(parts) == 2 {
			if s.TwMult, err = strconv.ParseFloat(parts[1], 64); err != nil {
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

// validateWorkers range-checks the -workers flag the way buildPlan checks
// the fault flags: fail with a usable message before any goroutines start.
func validateWorkers(w int) error {
	if w < 1 {
		return fmt.Errorf("-workers %d: need at least one worker", w)
	}
	if w > maxWorkers {
		return fmt.Errorf("-workers %d: more than %d workers oversubscribes any host this simulator targets", w, maxWorkers)
	}
	return nil
}

func splitRankAt(s string) (rank int, rest string, err error) {
	i := strings.IndexByte(s, '@')
	if i < 0 {
		return 0, "", fmt.Errorf("want rank@value")
	}
	rank, err = strconv.Atoi(s[:i])
	return rank, s[i+1:], err
}

// parseNames resolves the name flags, each through its type's one parser.
func parseNames(machineName, curveName, modeName, distName string) (optipart.Machine, optipart.CurveKind, optipart.Mode, optipart.Distribution, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return m, 0, 0, 0, err
	}
	kind, err := sfc.ParseKind(curveName)
	if err != nil {
		return m, 0, 0, 0, err
	}
	pmode, err := partition.ParseMode(modeName)
	if err != nil {
		return m, 0, 0, 0, err
	}
	d, err := octree.ParseDistribution(distName)
	return m, kind, pmode, d, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
