// Command meshgen generates the adaptive octrees used throughout the
// experiments and reports their structure: leaf counts per level, balance
// status, and the boundary-surface statistics that partition quality
// depends on.
//
//	meshgen -seeds 2000 -depth 8 -dist normal -balance
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
	"optipart/internal/stats"
)

func main() {
	var (
		seeds   = flag.Int("seeds", 1000, "number of refinement seed points")
		depth   = flag.Int("depth", 8, "maximum refinement level")
		dist    = flag.String("dist", "normal", "seed distribution: uniform, normal, lognormal")
		dim     = flag.Int("dim", 3, "dimension (2 or 3)")
		balance = flag.Bool("balance", true, "enforce 2:1 face balance")
		seed    = flag.Int64("seed", 1, "RNG seed")
		curveN  = flag.String("curve", "hilbert", "ordering curve: morton or hilbert")
		svgOut  = flag.String("svg", "", "write a 2D mesh rendering (dim=2 only) to this SVG file")
		svgP    = flag.Int("svg-p", 0, "color the SVG by an equal-work partition into this many ranks")
	)
	flag.Parse()

	if err := checkFlags(*dim, *seeds, *depth, *svgP, *svgOut); err != nil {
		fatal(err)
	}
	kind, d, err := parseNames(*curveN, *dist)
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	tree := octree.AdaptiveMesh(rng, *seeds, *dim, d, uint8(*depth))
	raw := tree.Len()
	if *balance {
		tree = octree.Balance21(tree)
	}
	tree = tree.WithCurve(sfc.NewCurve(kind, *dim))

	fmt.Printf("mesh: %d leaves (%d before balancing), dim=%d, dist=%s, depth<=%d, %v order\n\n",
		tree.Len(), raw, *dim, d, *depth, kind)

	hist := map[uint8]int{}
	for _, k := range tree.Leaves {
		hist[k.Level]++
	}
	table := stats.NewTable("leaves per level", "level", "count", "share")
	for lvl := uint8(0); lvl <= uint8(*depth); lvl++ {
		if hist[lvl] == 0 {
			continue
		}
		table.Add(lvl, hist[lvl], fmt.Sprintf("%.1f%%", 100*float64(hist[lvl])/float64(tree.Len())))
	}
	table.Fprint(os.Stdout)

	fmt.Printf("\ncomplete: %v   2:1 balanced: %v\n",
		octree.IsComplete(tree.Curve, tree.Leaves), octree.IsBalanced21(tree))

	if *svgOut != "" {
		var sp *partition.Splitters
		if *svgP > 1 {
			comm.Run(*svgP, machine.Titan().CostModel(), func(c *comm.Comm) {
				var local []sfc.Key
				for i, k := range tree.Leaves {
					if i%*svgP == c.Rank() {
						local = append(local, k)
					}
				}
				res := partition.Partition(c, local, partition.Options{
					Curve: tree.Curve, Mode: partition.EqualWork, Machine: machine.Titan(), SkipExchange: true,
				})
				if c.Rank() == 0 {
					sp = res.Splitters
				}
			})
		}
		f, err := os.Create(*svgOut)
		if err != nil {
			fatal(err)
		}
		// A short write can surface only at Close, so its error counts too.
		if err := errors.Join(renderSVG(f, tree.Curve, tree.Leaves, sp, svgOptions{DrawCurve: true}), f.Close()); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
}

// checkFlags range-checks the numeric flags before any work, the way
// optipartd's buildPlan checks its fault flags: a bad value is a one-line
// error, not a panic deep in the curve code or a refinement that never
// ends.
func checkFlags(dim, seeds, depth, svgP int, svg string) error {
	switch {
	case dim != 2 && dim != 3:
		return fmt.Errorf("-dim %d: want 2 or 3", dim)
	case seeds < 1:
		return fmt.Errorf("-seeds %d: need at least one seed point", seeds)
	case depth < 1 || depth > sfc.MaxLevel:
		return fmt.Errorf("-depth %d: want a level in [1,%d]", depth, sfc.MaxLevel)
	case svgP < 0:
		return fmt.Errorf("-svg-p %d: cannot be negative (0 draws no partition)", svgP)
	case svg != "" && dim != 2:
		return fmt.Errorf("-svg requires -dim 2")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// parseNames resolves the -curve and -dist flags through their types' one
// parsers.
func parseNames(curveName, distName string) (sfc.Kind, octree.Distribution, error) {
	kind, err := sfc.ParseKind(curveName)
	if err != nil {
		return 0, 0, err
	}
	d, err := octree.ParseDistribution(distName)
	return kind, d, err
}
