package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
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
