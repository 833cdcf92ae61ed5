package main

import (
	"math"
	"math/rand"
	"time"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// onlineRepart is the online AMR loop: one op is a regrid cycle of block
// consecutive Repartitioner.Steps, each on the delta of an evolving
// 2:1-balanced mesh (the evolution between them is untimed). A single step is
// either cheap (the prior placement is kept after one candidate) or up to
// three times dearer (a ladder of candidates is priced and one adopted), and
// how often the mesh calls for the second kind varies threefold from mesh to
// mesh; timing steps one by one puts the 90th percentile on the edge between
// the two kinds, where it jumps by 40 % from seed to seed. Every campaign restarts from
// the same mesh with a fresh engine and its own evolution (the k-th campaign
// of a run always gets the k-th evolver seed), so a run samples several
// refinement histories and still repeats exactly.
// The serial selection core, the rank cache and the moved-bytes accounting
// do the work; comm, net and service do none.
type onlineRepart struct {
	meshSeeds  int
	maxLevel   uint8
	steps      int     // per campaign; the mesh doubles every ~100 steps, so a longer campaign has no stationary median
	block      int     // steps per op; divides steps
	checkEvery int     // steps between owner recounts
	rate       float64 // steps per second of timed window on the sizing host

	curve     *sfc.Curve
	cfg       partition.RepartConfig
	start     []sfc.Key
	seed      int64
	campaigns int64 // started since set-up
}

const (
	refineFrac  = 0.002
	coarsenFrac = 0.0025

	// meshSeed fixes the start mesh (the one BenchmarkRepartitionStep has
	// always used); -seed picks the refinement histories run on it. How
	// often a mesh calls for migration is a property of where its partition
	// boundaries fall, and varies threefold from mesh to mesh: a fresh mesh
	// per seed made every timing follow the mesh, not the code.
	meshSeed = 7
)

func (w *onlineRepart) name() string { return "online-repart" }

func (w *onlineRepart) opsPerRep(seconds float64, reps int) int {
	campaigns := math.Round(w.rate * seconds / float64(reps*w.steps))
	return max(1, int(campaigns)) * w.steps / w.block
}

func (w *onlineRepart) setup(seed int64) error {
	w.curve = sfc.NewCurve(sfc.Hilbert, 3)
	w.cfg = partition.RepartConfig{Curve: w.curve, P: 16, Machine: machine.Titan(), Tol: 0.03, Horizon: 240}
	mesh := octree.AdaptiveMesh(rand.New(rand.NewSource(meshSeed)), w.meshSeeds, 3, octree.Normal, w.maxLevel)
	w.start = octree.Balance21(mesh).WithCurve(w.curve).Leaves
	w.seed, w.campaigns = seed, 0
	return nil
}

func (w *onlineRepart) close() {}

// campaign returns a seeded engine and the evolver that drives it.
func (w *onlineRepart) campaign() (*partition.Repartitioner, *octree.Evolver) {
	e := partition.NewRepartitioner(w.cfg)
	e.Seed(w.start)
	w.campaigns++
	ev := octree.NewEvolver(w.curve, w.seed<<16+w.campaigns, w.start)
	ev.RefineBias, ev.CoarsenBias = octree.FrontBias(3, 2, 8, 0.1)
	return e, ev
}

func (w *onlineRepart) run(n int, r *result) {
	perCampaign := w.steps / w.block
	for n > 0 {
		ops := min(n, perCampaign)
		n -= ops
		e, ev := w.campaign()
		for op := 0; op < ops; op++ {
			var d time.Duration
			var keys int
			var tp float64
			var moved int64
			var err error
			for s := op*w.block + 1; s <= (op+1)*w.block; s++ {
				delta := ev.Step(refineFrac, coarsenFrac)
				var prior *partition.Splitters
				if s%w.checkEvery == 0 {
					prior = e.Splitters()
				}
				var res partition.StepResult
				d += r.timed(func() { res = e.Step(delta) })
				keys += e.Len()
				tp += res.Predicted / float64(w.block)
				moved += res.MovedBytes
				if cerr := checkStep(e, res, prior, machine.GhostPayloadBytes); cerr != nil {
					err = cerr
				}
			}
			r.record(d, keys, tp, moved, err)
		}
	}
}

func (w *onlineRepart) trace(_ int, tr *tracer, _ float64) map[string]float64 {
	n := w.steps // one campaign, traced step by step
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	e, ev := w.campaign()
	cold := partition.NewRepartitioner(w.cfg)
	var kept, rungs, edited float64

	for s := 1; s <= n; s++ {
		root := tr.begin(w.name(), s, -1, "bench", "op")
		id := tr.begin(w.name(), s, root, "octree", "Evolver.Step")
		delta := ev.Step(refineFrac, coarsenFrac)
		add("octree.evolve_ms", tr.end(id))
		edited += float64(len(delta.Refined)+len(delta.Coarsened)*w.curve.NumChildren()) / float64(delta.OldLen)

		var prior *partition.Splitters
		if s%w.checkEvery == 0 {
			prior = e.Splitters()
		}
		before := readCounters().objects
		id = tr.begin(w.name(), s, root, "partition", "Repartitioner.Step")
		res := e.Step(delta)
		stepMs := tr.end(id)
		add("partition.step_allocs", float64(readCounters().objects-before))
		add("partition.step_ms", stepMs)
		rungs += float64(res.Rounds)
		if res.Kept {
			kept++
		}

		if prior != nil {
			// The same mesh and prior through the two other routes to a
			// placement: a cold re-ingest on a second engine, and the
			// collective twin in a p-rank world.
			leaves := ev.Leaves()
			id = tr.begin(w.name(), s, root, "partition", "Repartitioner.Rebuild")
			cold.Rebuild(leaves, prior)
			add("partition.rebuild_ms", tr.end(id))

			ranges := prior.Ranges(leaves)
			id = tr.begin(w.name(), s, root, "partition", "Repartition(collective)")
			comm.Run(w.cfg.P, w.cfg.Machine.CostModel(), func(c *comm.Comm) {
				partition.Repartition(c, leaves[ranges[c.Rank()]:ranges[c.Rank()+1]], partition.RepartOptions{
					Options: partition.Options{
						Curve: w.curve, Tol: w.cfg.Tol, Machine: w.cfg.Machine, SkipExchange: true,
					},
					Prior:   prior,
					Horizon: w.cfg.Horizon,
				})
			})
			add("partition.collective_repart_ms", tr.end(id))
		}
		tr.end(root)
	}

	out := map[string]float64{}
	for name, vals := range series {
		out[name] = median(vals)
	}
	out["partition.warm_over_cold"] = out["partition.step_ms"] / out["partition.rebuild_ms"]
	out["partition.kept_ratio"] = kept / float64(n)
	out["partition.ladder_rungs"] = rungs / float64(n)
	out["partition.delta_keys_ratio"] = edited / float64(n)
	return out
}
