package main

// svg.go renders 2D quadtrees, their SFC traversal, and partition
// assignments as SVG — the illustrations of Figures 1 and 2 of the paper,
// regenerated from live data structures.

import (
	"bufio"
	"fmt"
	"io"

	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// palette holds fill colors per partition, cycled when p exceeds its size.
var palette = []string{
	"#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854",
	"#ffd92f", "#e5c494", "#b3b3b3",
}

// svgOptions controls the rendering.
type svgOptions struct {
	// SizePx is the image edge length in pixels (default 512).
	SizePx int
	// DrawCurve overlays the SFC traversal polyline through cell centers.
	DrawCurve bool
	// DrawLabels writes the partition id into each cell (readable only for
	// coarse trees).
	DrawLabels bool
}

// renderSVG draws a 2D linear quadtree with each leaf filled by its owner's
// color under the given splitters (pass nil splitters for a single-color
// mesh). Leaves must be in curve order.
func renderSVG(w io.Writer, curve *sfc.Curve, leaves []sfc.Key, sp *partition.Splitters, opts svgOptions) error {
	if curve.Dim != 2 {
		return fmt.Errorf("svg: only 2D trees can be rendered, got dim %d", curve.Dim)
	}
	size := opts.SizePx
	if size <= 0 {
		size = 512
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		size, size, size, size)

	scale := float64(size) / float64(uint64(1)<<sfc.MaxLevel)
	toPx := func(v uint32) float64 { return float64(v) * scale }

	for _, k := range leaves {
		fill := palette[0]
		owner := 0
		if sp != nil {
			owner = sp.Owner(k)
			fill = palette[owner%len(palette)]
		}
		side := toPx(k.Size())
		// SVG y grows downward; flip so the origin is bottom-left like the
		// paper's figures.
		x := toPx(k.X)
		y := float64(size) - toPx(k.Y) - side
		fmt.Fprintf(bw, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="#333" stroke-width="0.6"/>`+"\n",
			x, y, side, side, fill)
		if opts.DrawLabels {
			fmt.Fprintf(bw, `<text x="%.2f" y="%.2f" font-size="%.1f" text-anchor="middle">%d</text>`+"\n",
				x+side/2, y+side/2, side/3, owner)
		}
	}

	if opts.DrawCurve && len(leaves) > 1 {
		fmt.Fprint(bw, `<polyline fill="none" stroke="#d62728" stroke-width="1.2" points="`)
		for _, k := range leaves {
			half := toPx(k.Size()) / 2
			cx := toPx(k.X) + half
			cy := float64(size) - toPx(k.Y) - half
			fmt.Fprintf(bw, "%.2f,%.2f ", cx, cy)
		}
		fmt.Fprintln(bw, `"/>`)
	}
	fmt.Fprintln(bw, "</svg>")
	return bw.Flush()
}
