// Command experiments regenerates the tables and figures of the paper's
// evaluation (§5). Each experiment prints the paper's configuration, the
// scaled configuration actually run, and the resulting rows.
//
// Usage:
//
//	experiments -list
//	experiments -run fig7
//	experiments -run faults   # rank-failure recovery campaign
//	experiments -run all -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"optipart/internal/experiments"
	"optipart/internal/par"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment to run (figN, headline, or all)")
		list    = flag.Bool("list", false, "list available experiments")
		quick   = flag.Bool("quick", false, "use small problem sizes (smoke test)")
		seed    = flag.Int64("seed", 0, "RNG seed (0 = default)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width shared by all ranks (1 forces the serial paths; transcripts are identical at every width)")
	)
	flag.Parse()

	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "error: -workers %d: need at least one worker\n", *workers)
		os.Exit(1)
	}
	par.SetWorkers(*workers)

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, name := range experiments.Names() {
			fmt.Printf("  %-9s %s\n", name, experiments.Describe(name))
		}
		fmt.Println("  all       run everything")
		if *run == "" && !*list {
			fmt.Println("\nuse -run <name>")
		}
		return
	}

	cfg := experiments.Config{Out: os.Stdout, Quick: *quick, Seed: *seed}
	if err := experiments.Run(*run, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
