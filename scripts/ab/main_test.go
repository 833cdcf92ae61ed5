package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"slices"
	"testing"
)

// TestHistoryRows: every row of scripts/ab_history.jsonl parses, holds only
// fields a row has, and names workloads and metrics that BENCHMARK.json
// declares, each with one of the three verdicts.
func TestHistoryRows(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		spec
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		declared[m.Name] = true
	}
	workloads := map[string]bool{}
	for _, w := range sp.Workloads {
		workloads[w.Name] = true
	}

	hist, err := os.ReadFile("../ab_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(hist))
	for n := 1; sc.Scan(); n++ {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var r row
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("row %d: %v", n, err)
		}
		if r.Old == "" || r.New == "" || r.Pairs < 1 || !workloads[r.Workload] || len(r.Metrics) == 0 {
			t.Errorf("row %d: incomplete or unknown workload: %+v", n, r)
		}
		for _, m := range r.Metrics {
			if !declared[m.Metric] {
				t.Errorf("row %d: metric %q is not declared in BENCHMARK.json", n, m.Metric)
			}
			if !slices.Contains([]string{better, worse, unresolved}, m.Verdict) {
				t.Errorf("row %d: %s has verdict %q", n, m.Metric, m.Verdict)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSignTest(t *testing.T) {
	cases := []struct {
		w, l int
		want float64
	}{
		{0, 0, 1}, {5, 5, 1}, {5, 0, 0.0625}, {9, 1, 22.0 / 1024}, {1, 9, 22.0 / 1024}, {10, 0, 2.0 / 1024},
	}
	for _, c := range cases {
		if got := signTest(c.w, c.l); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %g, want %g", c.w, c.l, got, c.want)
		}
	}
}

// TestJudge: a lower-is-better metric that wins nine of ten pairs by more
// than the old side's spread is resolved better; the same split inside the
// spread, and any five-pair sweep, is not.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower"}
	old := []float64{10, 11, 9, 10, 10.5, 9.5, 10, 10.2, 9.8, 10}
	fast := []float64{6, 6.5, 6, 6.2, 6.1, 5.9, 6, 6.3, 6, 11}
	if v := judge(lower, old, fast).Verdict; v != better {
		t.Errorf("clear win: %q", v)
	}
	if v := judge(lower, fast, old).Verdict; v != worse {
		t.Errorf("clear loss: %q", v)
	}
	near := make([]float64, len(old))
	for i, x := range old {
		near[i] = x * 0.99
	}
	if v := judge(lower, old, near).Verdict; v != unresolved {
		t.Errorf("a 1%% gap inside the spread: %q", v)
	}
	if v := judge(lower, old[:5], fast[:5]).Verdict; v != unresolved {
		t.Errorf("five pairs: %q", v)
	}
	if got := judge(metricDef{Name: "keys_per_s", Better: "higher"}, old, fast); got.Wins != 1 || got.Losses != 9 {
		t.Errorf("higher-is-better wins %d, losses %d", got.Wins, got.Losses)
	}
}

// TestChangedExact feeds two canned reports of one online-repart pass
// through the benchmark's own -compare: the exact metrics that moved, one
// end-to-end and one per-layer, are reported unless -intended names them,
// and clocks that moved are not.
func TestChangedExact(t *testing.T) {
	dir := t.TempDir()
	s := side{label: "tree", tree: "../..", bin: dir + "/benchmark"}
	if out, err := exec.Command("go", "build", "-o", s.bin, "../../benchmark").CombinedOutput(); err != nil {
		t.Fatalf("build the benchmark: %v\n%s", err, out)
	}
	canned := func(name string, tp, kept, stepMs float64) string {
		rep := map[string]any{"seed": 1, "seconds": 5, "reps": 3, "workloads": []any{map[string]any{
			"name": "online-repart", "correct": true, "attempted": 10, "n": 10,
			"end_to_end": map[string]any{"modeled_tp_us": map[string]any{"value": tp, "unit": "us"}},
			"per_layer": map[string]any{
				"partition.kept_ratio": map[string]any{"value": kept, "unit": "ratio"},
				"partition.step_ms":    map[string]any{"value": stepMs, "unit": "ms"},
			},
		}}}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old, same, moved := canned("old.json", 1000, 0.75, 2), canned("same.json", 1000, 0.75, 1.5), canned("moved.json", 1001, 0.8, 1.5)
	for _, c := range []struct {
		newPath  string
		intended []string
		want     []string
	}{
		{same, nil, nil},
		{moved, nil, []string{"modeled_tp_us", "partition.kept_ratio"}},
		{moved, []string{"partition.kept_ratio"}, []string{"modeled_tp_us"}},
	} {
		got, err := changedExact(s, old, c.newPath, c.intended)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s, intended %v: changed %v, want %v", c.newPath, c.intended, got, c.want)
		}
	}
	if _, err := changedExact(s, old, dir+"/missing.json", nil); err == nil {
		t.Error("an unreadable report passed")
	}
}
