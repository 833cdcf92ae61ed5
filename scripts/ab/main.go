// Command ab runs a paired A/B comparison of two trees on one benchmark
// workload and says which end-to-end differences the pairs resolve:
//
//	go run ./scripts/ab -old <rev> -new <rev|dir> -workload <w> [-pairs 10] [-seed 1]
//	    [-intended modeled_tp_us] [-history scripts/ab_history.jsonl]
//
// Run it from the repository root. A revision is exported with git archive
// into a temporary directory; a directory (a working tree, say) is used in
// place. Each side's ./benchmark is built inside its own tree with its own
// GOCACHE under .bench_build, as benchmark/run.sh does, and the two builds
// then run in ABBA order, old first in even pairs, each from its own root
// with -seconds 5 -reps 3 -trace 0 and the given seed.
//
// For every end-to-end metric that BENCHMARK.json declares it prints each
// side's median, the median of the per-pair ratios new/old, the pairs each
// side won, and a verdict. A difference is resolved when a two-sided sign
// test over the untied pairs gives p <= 0.05 and the two sides' medians
// differ by more than the old side's interquartile range; the verdict is
// then `resolved better` or `resolved worse` by the metric's direction,
// and `unresolved` otherwise. Ten pairs resolve at 9 wins; five pairs never do. The
// resolution column is the old side's IQR over its median: the smallest
// gap, as a ratio, that these runs could call resolved.
//
// The modeled cost must not move: if modeled_tp_us differs within any
// pair, ab exits 1, unless the metric is named with -intended. Nor may any
// other exact metric (the counts and model outputs the benchmark's own
// -compare marks `changed`, per-layer ones included): after the pairs each
// side runs one traced pass (-trace -1, same seed and seconds), the new
// side's -compare reads both reports, and ab exits 1 on any metric it
// marks changed that -intended does not name. A completed run appends one
// JSON row to the history file. The row keeps ratios and
// verdicts, never raw timings, which drift from day to day on one host.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json ab reads.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// runResult is the single-run line the benchmark prints for one workload
// and one pass.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// row is one line of the history file: one ab run.
type row struct {
	Old      string      `json:"old"`
	New      string      `json:"new"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Pairs    int         `json:"pairs"`
	Metrics  []metricRow `json:"metrics"`
}

type metricRow struct {
	Metric      string  `json:"metric"`
	MedianRatio float64 `json:"median_ratio"`
	Wins        int     `json:"wins"`
	Losses      int     `json:"losses"`
	P           float64 `json:"p"`
	Resolution  float64 `json:"resolution"`
	Verdict     string  `json:"verdict"`
}

// The three verdicts.
const (
	better     = "resolved better"
	worse      = "resolved worse"
	unresolved = "unresolved"
)

// side is one tree under comparison.
type side struct {
	label string // the revision, or the directory's git description
	tree  string
	bin   string
}

func main() {
	oldRev := flag.String("old", "", "the baseline revision")
	newRev := flag.String("new", "", "the candidate revision, or a directory holding a checkout")
	workload := flag.String("workload", "", "the benchmark workload to pair")
	pairs := flag.Int("pairs", 10, "number of ABBA pairs")
	seed := flag.Int64("seed", 1, "the benchmark's -seed")
	intended := flag.String("intended", "", "comma-separated exact metrics allowed to differ (modeled_tp_us, partition.kept_ratio, ...)")
	history := flag.String("history", "scripts/ab_history.jsonl", "file the run's row is appended to (empty: none)")
	flag.Parse()
	if *oldRev == "" || *newRev == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: ab -old <rev> -new <rev|dir> -workload <w> [-pairs n] [-seed s] [-intended m,...]")
		os.Exit(2)
	}
	if err := run(*oldRev, *newRev, *workload, *pairs, *seed, strings.Split(*intended, ","), *history); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run(oldRev, newRev, workload string, pairs int, seed int64, intended []string, history string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run ab from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	work, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	oldSide, err := prepare(oldRev, filepath.Join(work, "old"))
	if err != nil {
		return err
	}
	newSide, err := prepare(newRev, filepath.Join(work, "new"))
	if err != nil {
		return err
	}

	args := []string{"-workload", workload, "-seconds", "5", "-reps", "3", "-trace", "0", "-seed", fmt.Sprint(seed)}
	olds := make([]runResult, pairs)
	news := make([]runResult, pairs)
	for i := 0; i < pairs; i++ {
		first, second := &olds[i], &news[i]
		a, b := oldSide, newSide
		if i%2 == 1 {
			first, second, a, b = second, first, b, a
		}
		if *first, err = bench(a, args); err != nil {
			return err
		}
		if *second, err = bench(b, args); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i+1, pairs)
	}

	r := row{Old: oldSide.label, New: newSide.label, Workload: workload, Seed: seed, Pairs: pairs}
	fmt.Printf("%s: %s -> %s, %d pairs, seed %d\n", workload, r.Old, r.New, pairs, seed)
	fmt.Printf("%-14s %12s %12s %8s %6s %8s %10s  %s\n", "metric", "old median", "new median", "ratio", "wins", "p", "resolution", "verdict")
	var exactErr error
	for _, m := range sp.EndToEnd {
		o, n := values(olds, m.Name), values(news, m.Name)
		if o == nil || n == nil {
			continue
		}
		mr := judge(m, o, n)
		r.Metrics = append(r.Metrics, mr)
		fmt.Printf("%-14s %12.6g %12.6g %8.4f %3d/%-2d %8.4f %9.1f%%  %s\n", m.Name, quantile(o, 0.5), quantile(n, 0.5), mr.MedianRatio, mr.Wins, mr.Wins+mr.Losses, mr.P, 100*mr.Resolution, mr.Verdict)
		if m.Name == "modeled_tp_us" && !slices.Contains(intended, m.Name) {
			for i := range o {
				if o[i] != n[i] {
					exactErr = fmt.Errorf("modeled_tp_us differs in pair %d: old %v, new %v (name it with -intended if the change means to move it)", i+1, o[i], n[i])
					break
				}
			}
		}
	}
	if exactErr != nil {
		return exactErr
	}
	traced := slices.Clone(args)
	traced[slices.Index(traced, "-trace")+1] = "-1"
	reports := [2]string{filepath.Join(work, "old.json"), filepath.Join(work, "new.json")}
	for i, s := range []side{oldSide, newSide} {
		if err := tracedPass(s, traced, reports[i]); err != nil {
			return err
		}
	}
	moved, err := changedExact(newSide, reports[0], reports[1], intended)
	if err != nil {
		return err
	}
	if len(moved) > 0 {
		return fmt.Errorf("the traced passes differ in exact metrics %s (name them with -intended if the change means to move them)", strings.Join(moved, ", "))
	}
	fmt.Println("exact metrics: the traced passes agree")
	if history == "" {
		return nil
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prepare resolves rev to a tree, exporting it into dir unless it already
// names a directory, and builds the tree's benchmark.
func prepare(rev, dir string) (side, error) {
	var s side
	if info, err := os.Stat(rev); err == nil && info.IsDir() {
		s.tree, _ = filepath.Abs(rev)
		s.label = filepath.Base(s.tree)
		if out, err := exec.Command("git", "-C", s.tree, "describe", "--always", "--dirty").Output(); err == nil {
			s.label = strings.TrimSpace(string(out))
		}
		// A dirty tree is told apart from other edits of the same commit by
		// the first 8 hex digits of the SHA-256 of its Go diff against that
		// commit (tracked files, the index included), which
		// `git diff <commit> <a commit of the edit> -- '*.go' | sha256sum`
		// reproduces once the edit is committed. Edits to docs keep it.
		if strings.HasSuffix(s.label, "-dirty") {
			if out, err := exec.Command("git", "-C", s.tree, "diff", "--no-ext-diff", "HEAD", "--", "*.go").Output(); err == nil {
				s.label += fmt.Sprintf(".%x", sha256.Sum256(out))[:9]
			}
		}
	} else {
		out, err := exec.Command("git", "rev-parse", "--short", rev).Output()
		if err != nil {
			return s, fmt.Errorf("%s is neither a directory nor a revision: %w", rev, err)
		}
		s.label, s.tree = strings.TrimSpace(string(out)), dir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return s, err
		}
		archive := exec.Command("git", "archive", "--format=tar", s.label)
		untar := exec.Command("tar", "-x", "-C", dir)
		if untar.Stdin, err = archive.StdoutPipe(); err != nil {
			return s, err
		}
		if err := untar.Start(); err != nil {
			return s, err
		}
		if err := errors.Join(archive.Run(), untar.Wait()); err != nil {
			return s, fmt.Errorf("export %s: %w", rev, err)
		}
	}
	cache := filepath.Join(s.tree, ".bench_build")
	if err := os.MkdirAll(filepath.Join(cache, "tmp"), 0o755); err != nil {
		return s, err
	}
	s.bin = filepath.Join(cache, "benchmark")
	build := exec.Command("go", "build", "-o", s.bin, "./benchmark")
	build.Dir = s.tree
	build.Env = append(os.Environ(), "GOCACHE="+filepath.Join(cache, "gocache"), "GOTMPDIR="+filepath.Join(cache, "tmp"), "GOFLAGS=-buildvcs=false")
	if out, err := build.CombinedOutput(); err != nil {
		return s, fmt.Errorf("build %s: %w\n%s", s.label, err, out)
	}
	return s, nil
}

// bench runs one side once and parses its result line.
func bench(s side, args []string) (runResult, error) {
	var res runResult
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.tree
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s: benchmark: %w\n%s", s.label, err, stderr.Bytes())
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("%s: benchmark output: %w", s.label, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: benchmark reports a failed output check", s.label)
	}
	return res, nil
}

// tracedPass runs one side once with args and writes the full report it
// prints to path.
func tracedPass(s side, args []string, path string) error {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.tree
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: traced benchmark: %w\n%s", s.label, err, stderr.Bytes())
	}
	return os.WriteFile(path, out, 0o644)
}

// changedExact feeds the reports at oldPath and newPath through s's
// benchmark -compare and returns the metrics it marks changed, less those
// intended names. -compare exits 1 on an end-to-end regression, which one
// traced pass per side cannot resolve, so only its changed markers count.
func changedExact(s side, oldPath, newPath string, intended []string) ([]string, error) {
	cmd := exec.Command(s.bin, "-compare", oldPath, newPath)
	cmd.Dir = s.tree
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) || bytes.HasPrefix(out, []byte("compare:")) {
		return nil, fmt.Errorf("%s: benchmark -compare: %v\n%s", s.label, err, out)
	}
	var moved []string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if i := slices.Index(f, "changed"); i >= 0 && i+1 < len(f) && !slices.Contains(intended, f[i+1]) {
			moved = append(moved, f[i+1])
		}
	}
	return moved, nil
}

// values returns one metric's value from each run, or nil when a run
// lacks it.
func values(runs []runResult, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		out[i] = m.Value
	}
	return out
}

// judge compares the paired values o and n of metric m.
func judge(m metricDef, o, n []float64) metricRow {
	mr := metricRow{Metric: m.Name}
	ratios := make([]float64, len(o))
	for i := range o {
		ratios[i] = n[i] / o[i]
		switch {
		case n[i] == o[i]:
		case (n[i] < o[i]) == (m.Better == "lower"):
			mr.Wins++
		default:
			mr.Losses++
		}
	}
	mr.MedianRatio = quantile(ratios, 0.5)
	mr.P = signTest(mr.Wins, mr.Losses)
	iqr := quantile(o, 0.75) - quantile(o, 0.25)
	mo := quantile(o, 0.5)
	if mo != 0 {
		mr.Resolution = iqr / math.Abs(mo)
	}
	mr.Verdict = unresolved
	if mr.P <= 0.05 && math.Abs(quantile(n, 0.5)-mo) > iqr {
		mr.Verdict = worse
		if mr.Wins > mr.Losses {
			mr.Verdict = better
		}
	}
	return mr
}

// quantile interpolates the q-quantile of xs linearly between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// signTest is the two-sided exact sign test of w wins against l losses:
// the probability, under a fair coin, of a split at least as uneven.
func signTest(w, l int) float64 {
	n, k := w+l, max(w, l)
	if n == 0 {
		return 1
	}
	tail := 0.0
	for i := k; i <= n; i++ {
		tail += binom(n, i)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

func binom(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}
