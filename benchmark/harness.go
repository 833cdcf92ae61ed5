package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// workload is one named set of inputs and the operation run on them. setup
// is the only place inputs are generated; run and trace hand the program
// under test nothing but those inputs.
type workload interface {
	name() string
	// opsPerRep returns how many ops one repetition runs so that the timed
	// windows of reps repetitions add up to about seconds on the sizing
	// host. Counts, not clocks, end a run, so every count metric repeats.
	opsPerRep(seconds float64, reps int) int
	setup(seed int64) error
	// run executes n ops of the untraced pass, each timed, then checked
	// outside its timed window, and records them in r (nil discards them:
	// the warm-up).
	run(n int, r *result)
	// trace executes the traced pass: n ops with spans around the calls
	// into each layer, plus the layer probes, and returns per-layer
	// metrics. refP50 is the untraced median of the same run.
	trace(n int, tr *tracer, refP50 float64) map[string]float64
	close()
}

// repStats is what one repetition contributes. Repetitions are kept apart:
// the reported timings are those of the quietest one, and -compare uses their
// spread to tell a change from noise.
type repStats struct {
	samples []float64     // ms, ops that passed their check
	keys    int64         // input keys of those ops
	window  time.Duration // timed-window wall time
}

// result accumulates the untraced pass of one workload.
type result struct {
	mu        sync.Mutex
	reps      []repStats
	attempted int
	failed    int
	firstErr  error
	tpSum     int64       // picoseconds, Eq. (3) of every adopted placement: an integer, so that the order in which overlapping ops finish cannot change the sum
	movedSum  int64       // bytes migrated by every adopted placement
	alloc     memCounters // heap objects and bytes allocated in the timed windows
}

// beginRep opens a repetition from a collected heap, so that no repetition
// inherits the previous one's garbage.
func (r *result) beginRep() {
	runtime.GC()
	r.reps = append(r.reps, repStats{})
}

// window is one open timed window.
type window struct {
	r      *result
	before memCounters
	t0     time.Time
}

// open starts a timed window. The heap counters are read outside it, and
// their deltas added to the pass when it closes, so untimed work between
// windows (input copies, output checks) stays out of the allocation counts.
// A nil result (the warm-up) measures nothing.
func (r *result) open() window {
	if r == nil {
		return window{}
	}
	return window{r: r, before: readCounters(), t0: time.Now()}
}

// close ends the window and returns its wall time.
func (w window) close() time.Duration {
	if w.r == nil {
		return 0
	}
	d := time.Since(w.t0)
	w.r.alloc = w.r.alloc.add(readCounters().since(w.before))
	return d
}

// timed runs f — one op, or one closed loop of overlapping ops — in a
// window of its own.
func (r *result) timed(f func()) time.Duration {
	w := r.open()
	f()
	return w.close()
}

// closedLoop makes wall the current repetition's timed window: the ops of a
// closed loop overlap, so their durations do not add up to it.
func (r *result) closedLoop(wall time.Duration) {
	if r != nil {
		r.reps[len(r.reps)-1].window = wall
	}
}

// record adds one op. An op that errored or failed its output check counts
// as attempted and failed, and contributes no latency sample.
func (r *result) record(d time.Duration, keys int, tp float64, moved int64, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	cur := &r.reps[len(r.reps)-1]
	cur.samples = append(cur.samples, ms(d))
	cur.keys += int64(keys)
	cur.window += d
	r.tpSum += int64(math.Round(tp * 1e12))
	r.movedSum += moved
}

func (r *result) ok() int { return r.attempted - r.failed }

// samples returns the number of latency samples behind the percentiles.
func (r *result) samples() int {
	n := 0
	for _, rep := range r.reps {
		n += len(rep.samples)
	}
	return n
}

// endToEnd returns the end-to-end metrics of the pass (setup_s is added by
// the caller, which timed it).
//
// Interference on a shared host only ever slows a repetition down, and on
// the sizing host it comes in bursts of tens of seconds, so the timings are
// those of the quietest repetition: the lowest median, the highest
// throughput. The tail is taken over every sample, each as a ratio to its own
// repetition's median, and scaled by that lowest median; a burst scales a
// whole repetition and so cancels, while the mix of cheap and dear ops, which
// a single repetition samples poorly, is pooled over the run.
func (r *result) endToEnd() map[string]float64 {
	per := r.perRep()
	var ratios []float64
	for i, rep := range r.reps {
		for _, s := range rep.samples {
			ratios = append(ratios, s/per["op_ms_p50"][i])
		}
	}
	p50 := slices.Min(per["op_ms_p50"])
	return map[string]float64{
		"op_ms_p50":     p50,
		"op_ms_p90":     p50 * percentile(ratios, 0.90),
		"keys_per_s":    slices.Max(per["keys_per_s"]),
		"modeled_tp_us": float64(r.tpSum) / 1e6 / float64(r.ok()),
		"ok_ratio":      float64(r.ok()) / float64(r.attempted),
	}
}

// perRep returns the timing metrics of each repetition on its own.
func (r *result) perRep() map[string][]float64 {
	out := map[string][]float64{}
	for _, rep := range r.reps {
		out["op_ms_p50"] = append(out["op_ms_p50"], percentile(rep.samples, 0.50))
		out["op_ms_p90"] = append(out["op_ms_p90"], percentile(rep.samples, 0.90))
		out["keys_per_s"] = append(out["keys_per_s"], float64(rep.keys)/rep.window.Seconds())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile interpolates linearly between the two closest ranks.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// memCounters are the runtime's cumulative allocation counters.
type memCounters struct{ objects, bytes uint64 }

// readCounters stops the world to read them; call it outside timed windows,
// while nothing but the code under measurement runs.
func readCounters() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc}
}

func (c memCounters) add(o memCounters) memCounters {
	return memCounters{c.objects + o.objects, c.bytes + o.bytes}
}

func (c memCounters) since(before memCounters) memCounters {
	return memCounters{c.objects - before.objects, c.bytes - before.bytes}
}
