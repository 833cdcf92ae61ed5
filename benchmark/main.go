// Command benchmark is the repo's one measurement harness: five named
// workloads, each generated from a seed in set-up, run against the
// partitioner's public entry points, checked, and reported as end-to-end
// metrics (an untraced pass) and per-layer metrics (a separate traced pass).
// BENCHMARK.json at the repo root names every workload and metric; README.md
// beside this file says why each exists and what is expected to move it.
//
//	go run ./benchmark                      # every workload, both passes
//	go run ./benchmark -workload wire-small -trace 0
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. That file is the
// only list of metric names and units: the program reports exactly the
// metrics it names, and refuses to report one it does not.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repo root,
// where the command is run) or its parent (where `go test` runs).
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	spec := new(benchSpec)
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// exact names the metrics that are counts or model outputs rather than
// clocks: at one seed and one -seconds they repeat bit for bit, and they
// differ at another seed.
var exact = map[string]bool{
	"modeled_tp_us": true, "partition.moved_kb_per_op": true,
	"partition.rounds": true, "partition.achieved_tol": true, "partition.wmax": true, "partition.cmax": true,
	"comm.alltoallv_kb": true, "comm.collectives_per_op": true, "comm.msgs_per_op": true, "comm.bytes_per_op": true,
	"partition.kept_ratio": true, "partition.ladder_rungs": true, "partition.delta_keys_ratio": true,
	"service.hit_ratio":        true,
	"service.evictions_per_op": true, "service.cached_keys": true,
	"net.collectives_per_op": true, "net.msgs_per_op": true, "net.bytes_per_op": true,
}

type config struct {
	seed     int64
	seconds  float64
	reps     int
	quick    bool
	trace    int // 0 untraced pass only, 1 traced pass only, -1 both
	only     string
	traceOut string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is one workload's share of a full report.
type workloadReport struct {
	Name      string               `json:"name"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	N         int                  `json:"n"` // latency samples behind the percentiles
	EndToEnd  map[string]metric    `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric    `json:"per_layer,omitempty"` // the layers this workload calls
	Reps      map[string][]float64 `json:"reps,omitempty"`      // each repetition's own value, for -compare
}

type report struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Reps       int               `json:"reps"`
	Quick      bool              `json:"quick"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadReport `json:"workloads"`
}

// suite builds the five workloads. The full sizes follow ISSUE 12; each rate
// is the workload's measured ops per second of timed window on the 2-core
// sizing host, which turns -seconds into a fixed op count. Quick sizes only
// prove that every path runs and every check passes.
func suite(quick bool) []workload {
	if quick {
		return []workload{
			&staticLarge{p: 4, perRank: 1 << 10, rate: 4},
			&onlineRepart{meshSeeds: 60, maxLevel: 6, steps: 10, block: 5, checkEvery: 5, rate: 10},
			&serviceLoad{pool: 4, rawKeys: 4000, ranks: 8, cacheKeys: 1 << 20, clients: 2, rate: 40},
			&serviceLoad{miss: true, pool: 4, rawKeys: 512, ranks: 8, cacheKeys: 1 << 12, clients: 2, rate: 40},
			&wireSmall{p: 3, perRank: 256, pool: 3, rate: 12},
		}
	}
	return []workload{
		&staticLarge{p: 16, perRank: 1 << 14, rate: 3.8},
		&onlineRepart{meshSeeds: 800, maxLevel: 8, steps: 50, block: 5, checkEvery: 10, rate: 35},
		&serviceLoad{pool: 8, rawKeys: 100_000, ranks: 8, cacheKeys: 1 << 20, clients: 2, rate: 340},
		&serviceLoad{miss: true, pool: 128, rawKeys: 4096, ranks: 8, cacheKeys: 1 << 20, clients: 2, rate: 350},
		&wireSmall{p: 3, perRank: 2048, pool: 32, rate: 66},
	}
}

const warmupOps = 2

// run executes the selected workloads and passes and returns the report,
// plus the tracer when a traced pass ran.
func run(cfg config, spec *benchSpec, log io.Writer) (*report, *tracer, error) {
	var ws []workload
	for _, w := range suite(cfg.quick) {
		if cfg.only == "" || cfg.only == w.name() {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return nil, nil, fmt.Errorf("no workload named %q", cfg.only)
	}
	rep := &report{Seed: cfg.seed, Seconds: cfg.seconds, Reps: cfg.reps, Quick: cfg.quick, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	// Set-up: everything before the first timed op. When end-to-end
	// metrics are wanted it is done once per repetition and the median
	// reported, since a single set-up time is a sample of one.
	setups := 1
	if cfg.trace != 1 {
		setups = cfg.reps
	}
	setupS := make([][]float64, len(ws))
	for i, w := range ws {
		for s := 0; s < setups; s++ {
			if s > 0 {
				w.close()
			}
			runtime.GC()
			t0 := time.Now()
			if err := w.setup(cfg.seed); err != nil {
				return nil, nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
			}
			w.run(warmupOps, nil)
			setupS[i] = append(setupS[i], time.Since(t0).Seconds())
		}
		defer w.close()
	}

	// The untraced pass: repetitions interleaved round-robin across the
	// workloads, so that drift on a shared host lands on all of them. A
	// traced-only run still needs one repetition of it, as the reference the
	// layer spans are reconciled against.
	reps := cfg.reps
	if cfg.trace == 1 {
		reps = 1
	}
	results := make([]*result, len(ws))
	for i := range ws {
		results[i] = new(result)
	}
	for r := 0; r < reps; r++ {
		for i, w := range ws {
			results[i].beginRep()
			w.run(w.opsPerRep(cfg.seconds, cfg.reps), results[i])
		}
	}

	var tr *tracer
	if cfg.trace != 0 {
		tr = newTracer()
	}
	for i, w := range ws {
		res := results[i]
		if res.ok() == 0 {
			return nil, nil, fmt.Errorf("%s: every op failed: %w", w.name(), res.firstErr)
		}
		wr := &workloadReport{
			Name: w.name(), Correct: res.failed == 0,
			Attempted: res.attempted, Failed: res.failed, N: res.samples(),
		}
		if res.firstErr != nil {
			fmt.Fprintf(log, "%s: first failed op: %v\n", w.name(), res.firstErr)
		}
		e2e := res.endToEnd()
		if cfg.trace != 1 {
			e2e["setup_s"] = median(setupS[i])
			wr.EndToEnd = declared(spec.EndToEnd, e2e)
			wr.Reps = res.perRep()
		}
		if cfg.trace != 0 {
			var gc runtime.MemStats
			runtime.ReadMemStats(&gc)
			layers := w.trace(w.opsPerRep(cfg.seconds, cfg.reps), tr, e2e["op_ms_p50"])
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			layers["partition.moved_kb_per_op"] = float64(res.movedSum) / 1024 / float64(res.ok())
			layers["proc.allocs_per_op"] = float64(res.alloc.objects) / float64(res.attempted)
			layers["proc.alloc_kb_per_op"] = float64(res.alloc.bytes) / 1024 / float64(res.attempted)
			layers["proc.peak_heap_mb"] = float64(mem.HeapSys) / (1 << 20)
			layers["proc.gc_cycles"] = float64(mem.NumGC - gc.NumGC)
			layers["proc.gomaxprocs"] = float64(rep.GOMAXPROCS)
			wr.PerLayer = declared(spec.PerLayer, layers)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, tr, nil
}

// declared renders the values a pass produced under their declared units.
// A produced value that BENCHMARK.json does not declare is a bug here.
func declared(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(vals))
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			out[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic(fmt.Sprintf("metric %q is not declared in BENCHMARK.json", name))
		}
	}
	return out
}

// complete returns have plus every declared metric it lacks, for the
// single-run form, which carries every per-layer metric on every workload. A
// missing metric belongs to a layer the workload does not call: a count
// reads 0, a time reads the tracer's empty-span floor.
func complete(defs []metricDef, have map[string]metric, floorNs float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := have[d.Name]
		if !ok {
			m = metric{Value: floorNs / nsPer(d.Unit), Unit: d.Unit}
		}
		out[d.Name] = m
	}
	return out
}

// nsPer returns the nanoseconds in one unit of a time metric, and +Inf for
// any other unit, so that an absent count divides down to 0.
func nsPer(unit string) float64 {
	switch unit {
	case "ns":
		return 1
	case "us":
		return 1e3
	case "ms":
		return 1e6
	case "s":
		return 1e9
	}
	return math.Inf(1)
}

// summarize prints every metric by name and unit, for people.
func summarize(w io.Writer, rep *report, spec *benchSpec, tr *tracer) {
	fmt.Fprintf(w, "seed %d, %g s per workload, %d repetitions, GOMAXPROCS %d\n", rep.Seed, rep.Seconds, rep.Reps, rep.GOMAXPROCS)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s: %d ops attempted, %d failed, N = %d latency samples\n", wr.Name, wr.Attempted, wr.Failed, wr.N)
		for _, d := range spec.EndToEnd {
			if m, ok := wr.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "  %-32s %16.6g %-7s", d.Name, m.Value, m.Unit)
				if reps := wr.Reps[d.Name]; len(reps) > 1 {
					fmt.Fprintf(w, " by repetition %.6g", reps)
				}
				fmt.Fprintln(w)
			}
		}
		if wr.PerLayer == nil {
			continue
		}
		for _, d := range spec.PerLayer {
			if m, ok := wr.PerLayer[d.Name]; ok { // the other layers do nothing here
				fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
		tr.printSelfTimes(w, wr.Name)
	}
}

func main() {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	var cfg config
	flag.Int64Var(&cfg.seed, "seed", 1, "every input is a pure function of this seed")
	flag.StringVar(&cfg.only, "workload", "", "run one workload (default: all five, repetitions interleaved)")
	flag.Float64Var(&cfg.seconds, "seconds", float64(spec.RunSeconds), "timed window per workload; it fixes the op counts, which end the run")
	flag.IntVar(&cfg.reps, "reps", 5, "repetitions per workload, and set-ups behind setup_s")
	flag.IntVar(&cfg.trace, "trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); -1: both")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny sizes, one repetition, a few seconds: a smoke test, not a measurement")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced pass's spans to this file as Chrome trace-event JSON")
	compare := flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareReports(os.Stdout, spec, flag.Arg(0), flag.Arg(1)))
	}
	if cfg.quick {
		cfg.seconds, cfg.reps = 1, 1
	}
	if cfg.reps < 1 || cfg.seconds <= 0 || cfg.trace < -1 || cfg.trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: need -reps >= 1, -seconds > 0 and -trace in {-1, 0, 1}")
		os.Exit(2)
	}

	rep, tr, err := run(cfg, spec, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	summarize(os.Stderr, rep, spec, tr)
	if cfg.traceOut != "" && tr != nil {
		if err := tr.writeChrome(cfg.traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}

	// Standard output carries one line: the result. One workload and one
	// pass print the single-run form the driver reads; anything more prints
	// the full report that -compare reads.
	var out any = rep
	if len(rep.Workloads) == 1 && cfg.trace != -1 {
		wr := rep.Workloads[0]
		metrics := wr.EndToEnd
		if cfg.trace == 1 {
			metrics = complete(spec.PerLayer, wr.PerLayer, spanFloorNs())
		}
		out = map[string]any{"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if slices.ContainsFunc(rep.Workloads, func(wr *workloadReport) bool { return !wr.Correct }) {
		os.Exit(1)
	}
}
