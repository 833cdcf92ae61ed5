package main

import (
	"math"
	"math/rand"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// staticLarge is the paper's from-scratch partition: one op is one SPMD
// world running partition.Partition with exchange, model-driven, on raw
// Normal keys at a per-rank size that reaches internal/par's parallel
// cutoff. psort, partition's selection and quality scans and
// comm.Alltoallv do nearly all the work; service and net do none.
type staticLarge struct {
	p       int
	perRank int
	rate    float64 // ops per second of timed window on the sizing host

	curve *sfc.Curve
	m     machine.Machine
	in    [][]sfc.Key // pristine unsorted input of each rank
	buf   [][]sfc.Key // the copy an op sorts in place
	alt   [][]sfc.Key // second copy, for the traced pass's width-1 sort
	res   []*partition.Result
	want  multiset
}

func (w *staticLarge) name() string { return "static-large" }

func (w *staticLarge) opsPerRep(seconds float64, reps int) int {
	return max(2, int(math.Ceil(w.rate*seconds/float64(reps))))
}

func (w *staticLarge) setup(seed int64) error {
	w.curve = sfc.NewCurve(sfc.Hilbert, 3)
	w.m = machine.Clemson32()
	w.in = make([][]sfc.Key, w.p)
	w.buf = make([][]sfc.Key, w.p)
	w.alt = make([][]sfc.Key, w.p)
	w.res = make([]*partition.Result, w.p)
	for r := range w.in {
		rng := rand.New(rand.NewSource(seed<<8 + int64(r)))
		w.in[r] = octree.RandomKeys(rng, w.perRank, 3, octree.Normal, 2, 18)
		w.buf[r] = make([]sfc.Key, w.perRank)
		w.alt[r] = make([]sfc.Key, w.perRank)
	}
	w.want = multisetOf(w.in)
	return nil
}

func (w *staticLarge) close() {}

func (w *staticLarge) opts() partition.Options {
	return partition.Options{Curve: w.curve, Mode: partition.ModelDriven, Machine: w.m}
}

func (w *staticLarge) fresh(dst [][]sfc.Key) {
	for r := range dst {
		copy(dst[r], w.in[r])
	}
}

func (w *staticLarge) run(n int, r *result) {
	opts := w.opts()
	for i := 0; i < n; i++ {
		w.fresh(w.buf)
		d := r.timed(func() {
			comm.Run(w.p, w.m.CostModel(), func(c *comm.Comm) {
				w.res[c.Rank()] = partition.Partition(c, w.buf[c.Rank()], opts)
			})
		})
		r.record(d, w.want.n, w.res[0].Predicted, 0, checkPartition(w.res, w.want))
	}
}

// trace re-creates Partition's stages from public calls inside one world,
// a barrier between stages, each stage timed on rank 0 from its start to
// the barrier that every rank reaches when it has finished the stage.
func (w *staticLarge) trace(n int, tr *tracer, refP50 float64) map[string]float64 {
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	var last *partition.Result
	var a2aBytes int64

	for op := 0; op < n; op++ {
		w.fresh(w.buf)
		w.fresh(w.alt)
		root := tr.begin(w.name(), op, -1, "bench", "op")

		id := tr.begin(w.name(), op, root, "sfc", "Curve.Rank")
		for _, keys := range w.in {
			for _, k := range keys {
				sink += w.curve.Rank(k).Lo
			}
		}
		add("sfc.rank_ns_per_key", tr.end(id)*1e6/float64(w.want.n))

		comm.Run(w.p, w.m.CostModel(), func(c *comm.Comm) {
			me := c.Rank()
			var width int
			if me == 0 {
				width = par.SetWorkers(1)
			}
			serial, _ := w.stage(c, tr, op, root, "psort", "TreeSort(workers=1)", func() {
				psort.TreeSort(w.curve, w.alt[me])
			})
			if me == 0 {
				par.SetWorkers(width)
			}
			sort, sortAllocs := w.stage(c, tr, op, root, "psort", "TreeSort", func() {
				psort.TreeSort(w.curve, w.buf[me])
			})
			var res *partition.Result
			plan, planAllocs := w.stage(c, tr, op, root, "partition", "Partition(SkipExchange)", func() {
				o := w.opts()
				o.SkipExchange = true
				res = partition.Partition(c, w.buf[me], o)
			})
			resort, resortAllocs := w.stage(c, tr, op, root, "psort", "TreeSort(sorted)", func() {
				psort.TreeSort(w.curve, w.buf[me])
			})
			quality, _ := w.stage(c, tr, op, root, "partition", "EvaluateQuality", func() {
				partition.EvaluateQuality(c, w.curve, w.buf[me], res.Splitters)
			})
			var ranges []int
			rangesMs, _ := w.stage(c, tr, op, root, "partition", "Splitters.Ranges", func() {
				ranges = res.Splitters.Ranges(w.buf[me])
			})
			send := make([][]sfc.Key, w.p)
			for r := range send {
				send[r] = w.buf[me][ranges[r]:ranges[r+1]]
			}
			var recv [][]sfc.Key
			a2a, _ := w.stage(c, tr, op, root, "comm", "Alltoallv", func() {
				recv = comm.Alltoallv(c, send, psort.KeyBytes, comm.AlltoallvOptions{})
			})
			merge, _ := w.stage(c, tr, op, root, "psort", "TreeSort(received)", func() {
				var mine []sfc.Key
				for _, run := range recv {
					mine = append(mine, run...)
				}
				psort.TreeSort(w.curve, mine)
			})
			// Bytes every rank sends to the others, summed by Allreduce so
			// that the count comes from the data, not from a formula.
			var off int64
			for r := range send {
				if r != me {
					off += int64(len(send[r])) * psort.KeyBytes
				}
			}
			total := comm.AllreduceScalar(c, off, 8, comm.SumI64)
			if me != 0 {
				return
			}
			last, a2aBytes = res, total
			add("psort.sort_ms", sort)
			add("psort.sort_serial_ms", serial)
			add("psort.sort_allocs", sortAllocs)
			add("partition.plan_ms", plan)
			add("partition.select_ms", plan-resort)
			add("partition.select_allocs", planAllocs-resortAllocs)
			add("partition.quality_ms", quality)
			add("partition.ranges_ms", rangesMs)
			add("comm.alltoallv_ms", a2a)
			add("psort.merge_ms", merge)
		})
		tr.end(root)
	}

	// Counts of the op as the untraced pass runs it, from the checked
	// runtime (which numbers collectives) and comm.Stats.
	var collectives int
	w.fresh(w.buf)
	stats, err := comm.RunChecked(w.p, w.m.CostModel(), func(c *comm.Comm) error {
		partition.Partition(c, w.buf[c.Rank()], w.opts())
		if c.Rank() == 0 {
			collectives = c.CollectiveIndex()
		}
		return nil
	})
	if err != nil {
		panic(err)
	}

	out := map[string]float64{}
	for name, vals := range series {
		out[name] = median(vals)
	}
	out["par.sort_speedup"] = out["psort.sort_serial_ms"] / out["psort.sort_ms"]
	delete(out, "psort.sort_serial_ms")
	out["psort.sort_mkeys_per_s"] = float64(w.want.n) / out["psort.sort_ms"] / 1e3
	out["partition.rounds"] = float64(last.Rounds)
	out["partition.achieved_tol"] = last.AchievedTol
	out["partition.wmax"] = float64(last.Quality.Wmax)
	out["partition.cmax"] = float64(last.Quality.Cmax)
	out["comm.alltoallv_kb"] = float64(a2aBytes) / 1024
	out["comm.collectives_per_op"] = float64(collectives)
	out["comm.msgs_per_op"] = float64(stats.TotalMsgs())
	out["comm.bytes_per_op"] = float64(stats.TotalBytes())
	out["comm.world_spawn_us"] = worldSpawnUs(tr, w.name(), w.p)
	out["trace.reconcile_ratio"] = (out["psort.sort_ms"] + out["partition.select_ms"] + out["partition.ranges_ms"] +
		out["comm.alltoallv_ms"] + out["psort.merge_ms"]) / refP50
	return out
}

// sink keeps the compiler from discarding a probe whose result is unused.
var sink uint64

// stage runs f on every rank between barriers. On rank 0 it returns the
// stage's wall time in ms — from its start to the barrier every rank
// reaches when it has finished — and the heap objects all ranks allocated
// meanwhile. The heap is read while every other rank waits at a barrier.
func (w *staticLarge) stage(c *comm.Comm, tr *tracer, op, root int, layer, name string, f func()) (float64, float64) {
	var id int
	var before uint64
	c.Barrier()
	if c.Rank() == 0 {
		before = readCounters().objects
		id = tr.begin(w.name(), op, root, layer, name)
	}
	c.Barrier()
	f()
	c.Barrier()
	if c.Rank() != 0 {
		return 0, 0
	}
	d := tr.end(id)
	return d, float64(readCounters().objects - before)
}

// worldSpawnUs is the median cost of an empty p-rank comm.Run: what every
// op that spins up its own world pays before any rank does useful work.
func worldSpawnUs(tr *tracer, workload string, p int) float64 {
	ds := make([]float64, 31)
	for i := range ds {
		id := tr.begin(workload, -1, -1, "comm", "Run(empty)")
		comm.Run(p, comm.CostModel{}, func(*comm.Comm) {})
		ds[i] = tr.end(id) * 1e3
	}
	return median(ds)
}
