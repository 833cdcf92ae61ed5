package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareReports is the regression gate: it applies each end-to-end metric's
// direction and bound from BENCHMARK.json to every workload of two full
// reports, prints one row per (workload, metric) with both values and the
// ratio with its base, and returns the process exit code: 1 on any
// regression, on more failed ops, or on unreadable input.
//
// A pairing is unresolved, not passed, when the runs' repetitions, taken in
// pairs, disagree by more than the bound about how much changed — unless
// every pair moved the better way. Per-layer metrics have no
// bound: they are listed with their ratio, and one that should repeat
// exactly but did not is marked changed.
func compareReports(w io.Writer, spec *benchSpec, oldPath, newPath string) int {
	older, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 1
	}
	newer, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 1
	}
	return compare(w, spec, older, newer)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a full report (run without -workload, or with -trace -1)", path)
	}
	return rep, nil
}

func compare(w io.Writer, spec *benchSpec, older, newer *report) int {
	sameInputs := older.Seed == newer.Seed && older.Seconds == newer.Seconds && older.Quick == newer.Quick
	if !sameInputs {
		fmt.Fprintln(w, "note: the runs differ in -seed, -seconds or -quick; exact metrics are expected to differ")
	}
	bad := 0
	for _, nw := range newer.Workloads {
		i := slices.IndexFunc(older.Workloads, func(ow *workloadReport) bool { return ow.Name == nw.Name })
		if i < 0 {
			fmt.Fprintf(w, "%s: only in the new run\n", nw.Name)
			continue
		}
		ow := older.Workloads[i]
		fmt.Fprintf(w, "%s\n", nw.Name)
		if nw.Failed*ow.Attempted > ow.Failed*nw.Attempted {
			fmt.Fprintf(w, "  REGRESSION  failed ops %d of %d, were %d of %d\n", nw.Failed, nw.Attempted, ow.Failed, ow.Attempted)
			bad++
		}
		for _, d := range spec.EndToEnd {
			o, okOld := ow.EndToEnd[d.Name]
			n, okNew := nw.EndToEnd[d.Name]
			if !okOld || !okNew {
				continue
			}
			verdict := judge(d, o.Value, n.Value, ow.Reps[d.Name], nw.Reps[d.Name])
			if verdict == "REGRESSION" {
				bad++
			}
			if exact[d.Name] && sameInputs && o.Value != n.Value {
				verdict += " changed"
			}
			fmt.Fprintf(w, "  %-12s%-26s %14.6g -> %14.6g %-7s %.4f x of %.6g (%s better, bound %g)\n",
				verdict, d.Name, o.Value, n.Value, d.Unit, n.Value/o.Value, o.Value, d.Better, d.Bound)
		}
		for _, d := range spec.PerLayer {
			o, okOld := ow.PerLayer[d.Name]
			n, okNew := nw.PerLayer[d.Name]
			if !okOld || !okNew {
				continue
			}
			verdict := ""
			if exact[d.Name] && sameInputs && o.Value != n.Value {
				verdict = "changed"
			}
			fmt.Fprintf(w, "  %-12s%-26s %14.6g -> %14.6g %-7s %.4f x of %.6g\n",
				verdict, d.Name, o.Value, n.Value, d.Unit, n.Value/o.Value, o.Value)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	return 0
}

// judge applies one metric's bound. worse is how far the new value is on the
// wrong side of the old one, as a share of the old one. Repetition i does the
// same work in both runs, so the repetitions pair up: when the new-to-old
// ratios of the pairs range wider than the bound, the runs cannot resolve a
// change of the bound's size, unless every pair moved the better way.
func judge(d metricDef, o, n float64, oldReps, newReps []float64) string {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if len(oldReps) > 1 && len(oldReps) == len(newReps) {
		ratios := make([]float64, len(oldReps))
		allBetter := true
		for i := range ratios {
			ratios[i] = newReps[i] / oldReps[i]
			allBetter = allBetter && sign*(ratios[i]-1) < 0
		}
		if slices.Max(ratios)-slices.Min(ratios) > d.Bound && !allBetter {
			return "unresolved"
		}
	}
	if sign*(n-o)/o > d.Bound {
		return "REGRESSION"
	}
	return "ok"
}
