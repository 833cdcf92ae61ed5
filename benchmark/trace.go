package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed interval of the traced pass: a call from the benchmark
// into one layer's public function, or the traced op that caused it.
type span struct {
	Name     string
	Layer    string
	Workload string
	Op       int // traced op the span belongs to; spans of one op share it
	ID       int // index in tracer.spans
	Parent   int // ID of the enclosing span, -1 for an op's root
	Start    time.Duration
	End      time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. It is only ever
// handed to the traced pass: the untraced pass, which is the source of every
// end-to-end number, never sees one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// newTracer reserves room for every span of a full traced pass, so that
// opening a span never allocates inside a window whose allocations a probe
// is counting.
func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(workload string, op, parent int, layer, name string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Workload: workload,
		Op: op, ID: id, Parent: parent, Start: now, End: now,
	})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	d := t.spans[id].dur()
	t.mu.Unlock()
	return ms(d)
}

// spanFloorNs is the tracer's own cost: the median duration of an empty
// span. In the single-run form a per-layer time metric of a layer the
// workload never calls reads this floor (tens of nanoseconds), so it is a
// measurement like every other value rather than a constant.
func spanFloorNs() float64 {
	scratch := &tracer{t0: time.Now()}
	ds := make([]float64, 101)
	for i := range ds {
		scratch.end(scratch.begin("", 0, -1, "", ""))
		ds[i] = float64(scratch.spans[i].dur().Nanoseconds())
	}
	return median(ds)
}

// selfTimes returns, per layer, the summed self time of the workload's
// spans: each span's duration minus the part its child spans cover.
func (t *tracer) selfTimes(workload string) map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Workload == workload && s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Workload == workload {
			self[s.Layer] += s.dur() - child[s.ID]
		}
	}
	return self
}

// printSelfTimes writes the per-layer self-time table of one workload, so
// that trace.reconcile_ratio can be audited by eye.
func (t *tracer) printSelfTimes(w io.Writer, workload string) {
	self := t.selfTimes(workload)
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	slices.Sort(layers)
	fmt.Fprintf(w, "  self time by layer (span minus child spans), %s traced pass:\n", workload)
	for _, l := range layers {
		fmt.Fprintf(w, "    %-10s %10.3f ms  %5.1f %%\n", l, ms(self[l]), 100*float64(self[l])/float64(total))
	}
}

// writeChrome dumps the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Workloads become processes and layers
// threads, so each layer reads as one lane.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	pids, tids := map[string]int{}, map[string]int{}
	idOf := func(m map[string]int, k string) int {
		if _, ok := m[k]; !ok {
			m[k] = len(m) + 1
		}
		return m[k]
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: idOf(pids, s.Workload), Tid: idOf(tids, s.Layer),
			Args: map[string]any{
				"workload": s.Workload, "layer": s.Layer,
				"op": s.Op, "id": s.ID, "parent": s.Parent,
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
