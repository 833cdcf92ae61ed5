package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/net"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// wireSmall is the multi-process deployment, kept in one process: one op is
// partition.Partition with exchange on a small world whose every collective
// crosses the real unix-socket transport (rank 0 through net.Root, the other
// ranks through net.Dial). The input is small, so frames, gob and socket
// round trips dominate and sorting is negligible: the workload a codec
// change moves, and the one every compute optimisation bypasses.
type wireSmall struct {
	p       int
	perRank int
	pool    int     // distinct inputs, used round-robin: how many refinement rounds (collectives) an input takes varies, and a pool averages over it
	rate    float64 // ops per second of timed window on the sizing host

	curve    *sfc.Curve
	m        machine.Machine
	in       [][][]sfc.Key // [input][rank], pristine and unsorted
	buf      [][]sfc.Key
	mu       sync.Mutex // guards res: ranks publish through it, because the race detector cannot see the ordering a socket barrier gives
	res      []*partition.Result
	want     []multiset
	wantSeps [][]sfc.Key // per input, the in-process backend's answer
	ops      int         // started since set-up; picks the input
	world    *wireWorld
}

func (w *wireSmall) name() string { return "wire-small" }

func (w *wireSmall) opsPerRep(seconds float64, reps int) int {
	return max(2, int(math.Ceil(w.rate*seconds/float64(reps))))
}

func (w *wireSmall) setup(seed int64) error {
	w.curve = sfc.NewCurve(sfc.Hilbert, 3)
	w.m = machine.Clemson32()
	w.in = make([][][]sfc.Key, w.pool)
	w.want = make([]multiset, w.pool)
	w.wantSeps = make([][]sfc.Key, w.pool)
	w.buf = make([][]sfc.Key, w.p)
	w.res = make([]*partition.Result, w.p)
	w.ops = 0
	for r := range w.buf {
		w.buf[r] = make([]sfc.Key, w.perRank)
	}
	for i := range w.in {
		w.in[i] = make([][]sfc.Key, w.p)
		for r := range w.in[i] {
			rng := rand.New(rand.NewSource(seed<<16 + int64(i*w.p+r)))
			w.in[i][r] = octree.RandomKeys(rng, w.perRank, 3, octree.Normal, 2, 18)
		}
		w.want[i] = multisetOf(w.in[i])
		if _, err := comm.RunChecked(w.p, w.m.CostModel(), func(c *comm.Comm) error {
			w.op(c, i)
			return nil
		}); err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		if err := checkPartition(w.res, w.want[i]); err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		w.wantSeps[i] = w.res[0].Splitters.Seps
	}
	var err error
	w.world, err = bringUp(w.p)
	return err
}

func (w *wireSmall) close() {
	if w.world != nil {
		w.world.close()
	}
}

// op is the rank program of one operation on input i, on a fresh unsorted
// copy of the rank's keys (Partition sorts in place).
func (w *wireSmall) op(c *comm.Comm, i int) {
	me := c.Rank()
	copy(w.buf[me], w.in[i][me])
	res := partition.Partition(c, w.buf[me], partition.Options{
		Curve: w.curve, Mode: partition.ModelDriven, Machine: w.m,
	})
	w.mu.Lock()
	w.res[me] = res
	w.mu.Unlock()
}

// check adds to checkPartition that the wire world found the splitters the
// in-process backend finds.
func (w *wireSmall) check(i int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !slices.Equal(w.res[0].Splitters.Seps, w.wantSeps[i]) {
		return fmt.Errorf("splitters over the wire differ from the in-process answer")
	}
	return checkPartition(w.res, w.want[i])
}

func (w *wireSmall) run(n int, r *result) {
	first := w.ops
	w.ops += n
	err := w.world.run(func(c *comm.Comm) {
		mine := r // ops are timed, checked and recorded on rank 0 alone
		if c.Rank() != 0 {
			mine = nil
		}
		for i := first; i < first+n; i++ {
			in := i % w.pool
			// Ops are separated by barriers. The other ranks leave the
			// barrier a moment before rank 0 reads the heap counters, so a
			// few of their first allocations go uncounted.
			c.Barrier()
			win := mine.open()
			w.op(c, in)
			d := win.close()
			c.Barrier()
			if c.Rank() == 0 {
				err := w.check(in)
				mine.record(d, w.want[in].n, w.res[0].Predicted, 0, err)
			}
		}
	})
	if err != nil {
		r.record(0, 0, 0, 0, err)
	}
}

func (w *wireSmall) trace(n int, tr *tracer, _ float64) map[string]float64 {
	const probes = 200 // 8-byte allreduces per backend
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	var modeled, measured, collectives float64
	var rtt memCounters

	// The same two rank programs run on both backends: n traced ops, and
	// the round-trip probe. Spans are opened on rank 0.
	ops := func(layer, metric string) func(c *comm.Comm) {
		return func(c *comm.Comm) {
			me := c.Rank()
			for op := 0; op < n; op++ {
				c.Barrier()
				var root, id int
				clock, seq := c.Clock(), c.CollectiveIndex()
				if me == 0 {
					root = tr.begin(w.name(), op, -1, "bench", "op")
					id = tr.begin(w.name(), op, root, layer, "Partition")
				}
				w.op(c, op%w.pool)
				if me == 0 {
					d := tr.end(id)
					add(metric, d)
					if layer == "net" {
						modeled += c.Clock() - clock
						measured += d / 1e3
						collectives += float64(c.CollectiveIndex() - seq)
					}
				}
				c.Barrier()
				if me == 0 {
					tr.end(root)
				}
			}
		}
	}
	probe := func(layer, metric string) func(c *comm.Comm) {
		return func(c *comm.Comm) {
			me := c.Rank()
			vals := []int64{int64(me)}
			c.Barrier()
			var before memCounters
			if me == 0 {
				before = readCounters()
			}
			for i := 0; i < probes; i++ {
				var id int
				if me == 0 {
					id = tr.begin(w.name(), -1, -1, layer, "Allreduce(8B)")
				}
				comm.Allreduce(c, vals, 8, comm.SumI64)
				if me == 0 {
					add(metric, tr.end(id)*1e3)
				}
			}
			c.Barrier()
			if me == 0 && layer == "net" {
				rtt = readCounters().since(before)
			}
		}
	}
	inproc := func(f func(c *comm.Comm)) *comm.Stats {
		stats, err := comm.RunChecked(w.p, w.m.CostModel(), func(c *comm.Comm) error {
			f(c)
			return nil
		})
		if err != nil {
			panic(err)
		}
		return stats
	}

	for _, f := range []func(*comm.Comm){ops("net", "net.op_ms"), probe("net", "net.allreduce_rtt_us")} {
		if err := w.world.run(f); err != nil {
			panic(err)
		}
	}
	// comm does the message and byte accounting inside the collectives'
	// compute step, which the wire root runs unchanged, so the in-process
	// twin's totals are the wire world's.
	stats := inproc(ops("comm", "net.inproc_op_ms"))
	inproc(probe("comm", "comm.allreduce_inproc_us"))

	out := map[string]float64{}
	for name, vs := range series {
		out[name] = median(vs)
	}
	opMs := out["net.op_ms"]
	delete(out, "net.op_ms")
	collectives /= float64(n)
	out["net.collectives_per_op"] = collectives
	out["net.msgs_per_op"] = float64(stats.TotalMsgs()) / float64(n)
	out["net.bytes_per_op"] = float64(stats.TotalBytes()) / float64(n)
	out["net.rtt_allocs"] = float64(rtt.objects) / probes
	out["net.rtt_kb"] = float64(rtt.bytes) / probes / 1024
	out["net.wire_share"] = collectives * out["net.allreduce_rtt_us"] / 1e3 / opMs
	out["net.calib_ts_us"] = w.world.model.Ts * 1e6
	out["net.calib_tw_ns_per_b"] = w.world.model.Tw * 1e9
	out["net.calib_tc_ns_per_b"] = w.world.model.Tc * 1e9
	out["net.model_over_measured"] = modeled / measured
	return out
}

// wireWorld is a p-rank world over a unix socket, all ranks goroutines of
// this process, kept up for the whole run: each rank's program is a loop
// that executes the closures run hands to every rank.
type wireWorld struct {
	p     int
	root  *net.Root
	model comm.CostModel // calibrated on the live links, then announced
	cmds  []chan func(*comm.Comm)
	acks  chan struct{}
	exits chan error // one value per rank program that has returned
	gone  int        // values already taken from exits
}

func bringUp(p int) (*wireWorld, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	endpoint := "unix:" + filepath.Join(scratchDir, fmt.Sprintf("wire-%d.sock", os.Getpid()))
	// Failure detection generous enough that a rank goroutine starved by
	// another workload's repetition on a small host is not declared dead.
	opts := net.Options{HeartbeatTimeout: 30 * time.Second, IOTimeout: 60 * time.Second}
	root, err := net.NewRoot(endpoint, p, opts)
	if err != nil {
		return nil, err
	}
	w := &wireWorld{
		p: p, root: root,
		cmds:  make([]chan func(*comm.Comm), p),
		acks:  make(chan struct{}),
		exits: make(chan error, p), // one send per rank, never blocks
	}
	program := func(c *comm.Comm) error {
		for f := range w.cmds[c.Rank()] {
			f(c)
			w.acks <- struct{}{}
		}
		return nil
	}
	for rank := range w.cmds {
		w.cmds[rank] = make(chan func(*comm.Comm))
	}
	for rank := 1; rank < p; rank++ {
		go func() {
			wk, err := net.Dial(endpoint, rank, p, opts)
			if err != nil {
				w.exits <- fmt.Errorf("rank %d dial: %w", rank, err)
				return
			}
			defer wk.Close()
			_, err = comm.RunRank(rank, p, wk.Model(), wk, comm.CheckedOptions{}, program)
			w.exits <- err
		}()
	}
	if err := root.WaitReady(10 * time.Second); err != nil {
		root.Close()
		return nil, err
	}
	if w.model, err = root.Calibrate(net.CalibrateOptions{}); err != nil {
		root.Close()
		return nil, err
	}
	root.Announce(w.model)
	go func() {
		_, err := comm.RunRank(0, p, w.model, root, comm.CheckedOptions{}, program)
		w.exits <- err
	}()
	return w, nil
}

// run executes f on every rank and returns when all have finished it, or
// with the world's error if a rank's program ended instead.
func (w *wireWorld) run(f func(*comm.Comm)) error {
	for rank := range w.cmds {
		select {
		case w.cmds[rank] <- f:
		case err := <-w.exits:
			w.gone++
			return fmt.Errorf("wire world failed: %w", err)
		}
	}
	for range w.cmds {
		select {
		case <-w.acks:
		case err := <-w.exits:
			w.gone++
			return fmt.Errorf("wire world failed: %w", err)
		}
	}
	return nil
}

// close ends every rank program, waits for each to return, and tears the
// transport down.
func (w *wireWorld) close() {
	for _, ch := range w.cmds {
		close(ch)
	}
	for ; w.gone < w.p; w.gone++ {
		<-w.exits
	}
	w.root.Drain(5 * time.Second)
	w.root.Close()
}
