package experiments

import (
	"fmt"
	"slices"

	"optipart/internal/octree"
	"optipart/internal/sfc"
	"optipart/internal/stats"
)

func init() {
	register("fig2",
		"TreeSort level vs load imbalance and partition boundary (2D, p=3)", fig2)
}

// fig2 reproduces Figure 2: partition a uniform 2D grid among p=3 processes
// at TreeSort levels 1–4. The load imbalance λ decreases toward 1 while the
// total partition boundary s is non-decreasing — the tradeoff that motivates
// flexible partitioning.
func fig2(cfg Config) error {
	paperNote(cfg,
		"2D uniform grids, levels 1-4, p=3: λ = 2, 1.2, 1.05, 1.01 with s = 16, 24, 28, 30 (cartoon units)",
		"same grids; boundary measured as inter-partition surface in level-4 cell edges")
	curve := sfc.NewCurve(sfc.Morton, 2)
	p := 3
	table := stats.NewTable("Figure 2: level vs (λ, s)", "level", "cells", "loads", "lambda", "boundary s")
	var prevS uint64
	var prevLambda float64
	for level := uint8(1); level <= 4; level++ {
		n := 1 << (2 * int(level))
		cells := make([]sfc.Key, n)
		for i := range cells {
			cells[i] = curve.KeyAtIndex(uint64(i), level)
		}
		// Contiguous curve segments with optimal ranks i·N/p.
		bounds := make([]int, p+1)
		for r := 0; r <= p; r++ {
			bounds[r] = r * n / p
		}
		loads := make([]int, p)
		var s uint64
		for r := 0; r < p; r++ {
			part := cells[bounds[r]:bounds[r+1]]
			loads[r] = len(part)
			s += interPartitionBoundary(curve, part, 4)
		}
		lambda := float64(slices.Max(loads)) / float64(slices.Min(loads))
		table.Add(level, n, fmt.Sprintf("%v", loads), lambda, s)
		if level > 1 {
			if lambda > prevLambda {
				return fmt.Errorf("fig2: λ increased from %g to %g at level %d", prevLambda, lambda, level)
			}
			if s < prevS {
				return fmt.Errorf("fig2: boundary decreased from %d to %d at level %d", prevS, s, level)
			}
		}
		prevS, prevLambda = s, lambda
	}
	table.Fprint(cfg.Out)
	return nil
}

// interPartitionBoundary measures the surface of a partition against the
// rest of the grid (excluding the domain outline), in unit faces at
// measurement depth.
func interPartitionBoundary(curve *sfc.Curve, part []sfc.Key, depth uint8) uint64 {
	inPart := make(map[sfc.Key]bool, len(part))
	for _, k := range part {
		inPart[k] = true
	}
	var s uint64
	for _, k := range part {
		per := uint64(1) << (depth - k.Level)
		units := uint64(1)
		for d := 0; d < curve.Dim-1; d++ {
			units *= per
		}
		for _, f := range octree.Faces(curve.Dim) {
			nk, ok := octree.FaceNeighbor(k, f)
			if !ok {
				continue // domain outline is not inter-partition surface
			}
			if !inPart[nk] {
				s += units
			}
		}
	}
	return s
}
