// Package experiments contains one driver per table/figure of the paper's
// evaluation (§5). Each driver regenerates the figure's rows or series —
// scaled down from the paper's Titan/CloudLab sizes per the mapping in
// DESIGN.md, with the machine model supplying the architecture parameters —
// and prints both the paper's configuration and the configuration actually
// run.
package experiments

import (
	"fmt"
	"io"
	"slices"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the experiment's tables.
	Out io.Writer
	// Seed makes every experiment deterministic.
	Seed int64
	// Quick shrinks problem sizes for use in tests and smoke runs.
	Quick bool
}

// Runner is one experiment driver.
type Runner func(cfg Config) error

var registry = map[string]Runner{}
var descriptions = map[string]string{}

func register(name, desc string, r Runner) {
	//lint:ignore unboundedgrowth registry is filled once at package init from the fixed set of figure drivers in this package — bounded by program text
	registry[name] = r
	//lint:ignore unboundedgrowth same init-time registration as registry above: one entry per figure driver, never written after init
	descriptions[name] = desc
}

// Names returns the registered experiment names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string { return descriptions[name] }

// Run executes the named experiment ("fig2" … "fig12", "headline", or
// "all").
func Run(name string, cfg Config) error {
	if cfg.Seed == 0 {
		cfg.Seed = 20170626 // HPDC'17 opened June 26, 2017
	}
	if name == "all" {
		for _, n := range Names() {
			fmt.Fprintf(cfg.Out, "\n===== %s: %s =====\n", n, descriptions[n])
			if err := registry[n](cfg); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	r, ok := registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg)
}

// paperNote prints the paper-vs-run configuration preamble.
func paperNote(cfg Config, paper, ours string) {
	fmt.Fprintf(cfg.Out, "paper: %s\nthis run: %s\n\n", paper, ours)
}
