package comm

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTracedRecordsSpans(t *testing.T) {
	model := CostModel{Tc: 1e-9, Ts: 1e-5, Tw: 1e-8}
	stats, trace := RunTraced(4, model, func(c *Comm) {
		c.SetPhase("work")
		c.Compute(1 << 20)
		_ = Allreduce(c, []int64{1}, 8, SumI64)
	})
	events := trace.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	ops := trace.OpTotals()
	if ops["compute"] <= 0 || ops["allreduce"] <= 0 {
		t.Fatalf("op totals missing entries: %v", ops)
	}
	// Events lie within the run's time span and are ordered per Events().
	for i, e := range events {
		if e.Start < 0 || e.End > stats.Time()+1e-12 {
			t.Fatalf("event %d out of range: %+v (run ends %g)", i, e, stats.Time())
		}
		if i > 0 && e.Start < events[i-1].Start {
			t.Fatal("events not sorted by start")
		}
	}
	// Every rank computed.
	seen := map[int]bool{}
	for _, e := range events {
		if e.Op == "compute" {
			seen[e.Rank] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("compute spans on %d of 4 ranks", len(seen))
	}
}

func TestUntracedRunRecordsNothing(t *testing.T) {
	// The plain Run must not pay any tracing cost or break.
	stats := Run(3, CostModel{Ts: 1}, func(c *Comm) {
		c.Barrier()
	})
	if stats.Time() <= 0 {
		t.Fatal("barrier cost missing")
	}
}

func TestRenderTimeline(t *testing.T) {
	model := CostModel{Tc: 1e-9, Ts: 1e-4}
	_, trace := RunTraced(3, model, func(c *Comm) {
		c.Compute(int64(1+c.Rank()) << 22)
		c.Barrier()
	})
	var buf bytes.Buffer
	RenderTimeline(&buf, trace, 3, 40)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 ranks
		t.Fatalf("timeline has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("no compute cells rendered")
	}
	if !strings.Contains(out, "≈") {
		t.Fatal("no collective cells rendered")
	}
	// Rank 0 computes least, so it spends the longest stretch blocked in
	// the barrier: more collective cells than the busiest rank.
	if strings.Count(lines[1], "≈") <= strings.Count(lines[3], "≈") {
		t.Fatalf("rank 0 should wait longer than rank 2:\n%s", out)
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	RenderTimeline(&buf, &Trace{}, 2, 10)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty trace not reported")
	}
}

// OpTotals returns the summed span length per op name, across ranks. Only
// tests total a trace by op.
func (t *Trace) OpTotals() map[string]float64 {
	out := map[string]float64{}
	for _, e := range t.Events() {
		out[e.Op] += e.End - e.Start
	}
	return out
}
