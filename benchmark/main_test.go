package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// quickReport runs every workload and both passes at quick sizes and
// returns the report as it comes back from its own JSON.
func quickReport(t *testing.T, spec *benchSpec, seed int64, traceOut string) *report {
	t.Helper()
	rep, tr, err := run(config{seed: seed, seconds: 1, reps: 1, quick: true, trace: -1}, spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report does not encode: %v", err)
	}
	back := new(report)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	return back
}

// TestQuick is the benchmark's own smoke test under `go test ./...`: every
// workload runs, every op passes its check, the output has the shape
// BENCHMARK.json declares, and the metrics that are counts or model outputs
// repeat exactly at one seed and move with another.
func TestQuick(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(d.Name) || declared[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		declared[d.Name] = true
	}
	for n := range exact {
		if !declared[n] {
			t.Errorf("exact metric %q is not declared in BENCHMARK.json", n)
		}
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}

	trace := filepath.Join(t.TempDir(), "trace.json")
	a := quickReport(t, spec, 1, trace)
	b := quickReport(t, spec, 1, "")
	other := quickReport(t, spec, 2, "")

	if len(a.Workloads) != 5 || len(spec.Workloads) != 5 {
		t.Fatalf("%d workloads ran, %d declared, want 5", len(a.Workloads), len(spec.Workloads))
	}
	for i, wa := range a.Workloads {
		wb, wo := b.Workloads[i], other.Workloads[i]
		if wa.Name != spec.Workloads[i].Name || !name.MatchString(wa.Name) {
			t.Errorf("workload %d is %q, BENCHMARK.json declares %q", i, wa.Name, spec.Workloads[i].Name)
		}
		if !wa.Correct || wa.Failed != 0 || wa.Attempted < 1 || wa.EndToEnd["ok_ratio"].Value != 1 {
			t.Errorf("%s: correct=%v, %d of %d ops failed", wa.Name, wa.Correct, wa.Failed, wa.Attempted)
		}
		if all := complete(spec.PerLayer, wa.PerLayer, 50); len(wa.EndToEnd) != len(spec.EndToEnd) || len(wa.PerLayer) == 0 || len(all) != len(spec.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d of %d per-layer metrics, declared %d and %d",
				wa.Name, len(wa.EndToEnd), len(wa.PerLayer), len(all), len(spec.EndToEnd), len(spec.PerLayer))
		}
		for _, d := range spec.EndToEnd {
			if m := wa.EndToEnd[d.Name]; m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: %s = %v %q, want a positive value in %q", wa.Name, d.Name, m.Value, m.Unit, d.Unit)
			}
		}
		for n := range exact {
			va, vb := valueOf(wa, n), valueOf(wb, n)
			if va != vb {
				t.Errorf("%s: %s does not repeat at one seed: %v, then %v", wa.Name, n, va, vb)
			}
		}
		if wa.EndToEnd["modeled_tp_us"] == wo.EndToEnd["modeled_tp_us"] {
			t.Errorf("%s: modeled_tp_us is %v at seeds 1 and 2: the inputs do not follow the seed",
				wa.Name, wa.EndToEnd["modeled_tp_us"].Value)
		}
	}
	if hit := a.Workloads[2].PerLayer; hit["service.hit_ratio"].Value != 1 {
		t.Errorf("service-hit: hit ratio %v, want 1", hit["service.hit_ratio"].Value)
	}
	if miss := a.Workloads[3].PerLayer; !(miss["service.evictions_per_op"].Value > 0) {
		t.Errorf("service-miss: no eviction: the cache bound is not reached")
	}

	var events struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Dur           float64
		}
	}
	data, err := os.ReadFile(trace)
	if err == nil {
		err = json.Unmarshal(data, &events)
	}
	if err != nil || len(events.TraceEvents) == 0 {
		t.Errorf("trace dump: %d events, err %v", len(events.TraceEvents), err)
	}

	// Comparing a run with itself passes; with every median latency doubled
	// it does not.
	var out bytes.Buffer
	if code := compare(&out, spec, a, a); code != 0 {
		t.Errorf("a run compared with itself exits %d:\n%s", code, out.String())
	}
	for _, w := range other.Workloads {
		w.EndToEnd["op_ms_p50"] = metric{Value: 2 * w.EndToEnd["op_ms_p50"].Value}
		w.Reps = nil
	}
	if code := compare(io.Discard, spec, b, other); code != 1 {
		t.Errorf("a run with doubled latency compared with its parent exits %d, want 1", code)
	}
}

func valueOf(w *workloadReport, name string) float64 {
	if m, ok := w.EndToEnd[name]; ok {
		return m.Value
	}
	return w.PerLayer[name].Value
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "keys_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d        metricDef
		o, n     float64
		oldReps  []float64
		newReps  []float64
		expected string
	}{
		{lower, 100, 105, []float64{99, 100, 101}, []float64{104, 105, 106}, "ok"},
		{lower, 100, 115, []float64{99, 100, 101}, []float64{114, 115, 116}, "REGRESSION"},
		{higher, 100, 85, nil, nil, "REGRESSION"},
		{higher, 100, 120, nil, nil, "ok"},
		// Repetitions that differ in their work but agree on the change.
		{lower, 100, 103, []float64{100, 150, 200}, []float64{103, 155, 204}, "ok"},
		// One pair says +30 %, another -2 %: a 5 % move is noise.
		{lower, 100, 105, []float64{100, 100, 100}, []float64{130, 105, 98}, "unresolved"},
		// ... unless every pair moved the better way.
		{lower, 100, 60, []float64{100, 100, 100}, []float64{90, 60, 59}, "ok"},
	} {
		if got := judge(c.d, c.o, c.n, c.oldReps, c.newReps); got != c.expected {
			t.Errorf("judge(%s, %v -> %v) = %q, want %q", c.d.Name, c.o, c.n, got, c.expected)
		}
	}
}
