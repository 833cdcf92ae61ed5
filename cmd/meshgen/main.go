// Command meshgen generates the adaptive octrees used throughout the
// experiments and reports their structure: leaf counts per level, balance
// status, and the boundary-surface statistics that partition quality
// depends on.
//
//	meshgen -seeds 2000 -depth 8 -dist normal -balance
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"optipart"
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

	kind, d, err := parseNames(*curveN, *dist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	rng := rand.New(rand.NewSource(*seed))
	tree := optipart.AdaptiveMesh(rng, *seeds, *dim, d, uint8(*depth))
	raw := tree.Len()
	if *balance {
		tree = optipart.Balance21(tree)
	}
	tree = tree.WithCurve(optipart.NewCurve(kind, *dim))

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
		if *dim != 2 {
			fmt.Fprintln(os.Stderr, "error: -svg requires -dim 2")
			os.Exit(1)
		}
		var sp *partition.Splitters
		if *svgP > 1 {
			optipart.Run(*svgP, optipart.Titan(), func(c *optipart.Comm) {
				var local []optipart.Key
				for i, k := range tree.Leaves {
					if i%*svgP == c.Rank() {
						local = append(local, k)
					}
				}
				res := optipart.Partition(c, local, optipart.Options{
					Curve: tree.Curve, Mode: optipart.EqualWork, Machine: optipart.Titan(), SkipExchange: true,
				})
				if c.Rank() == 0 {
					sp = res.Splitters
				}
			})
		}
		f, err := os.Create(*svgOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := renderSVG(f, tree.Curve, tree.Leaves, sp, svgOptions{DrawCurve: true}); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
}

// parseNames resolves the -curve and -dist flags through their types' one
// parsers.
func parseNames(curveName, distName string) (optipart.CurveKind, optipart.Distribution, error) {
	kind, err := sfc.ParseKind(curveName)
	if err != nil {
		return 0, 0, err
	}
	d, err := octree.ParseDistribution(distName)
	return kind, d, err
}
