package main

import (
	"bytes"
	"strings"
	"testing"

	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

func uniformGrid(curve *sfc.Curve, level uint8) []sfc.Key {
	n := uint64(1) << (2 * uint64(level))
	out := make([]sfc.Key, n)
	for i := uint64(0); i < n; i++ {
		out[i] = curve.KeyAtIndex(i, level)
	}
	return out
}

func TestRenderSVGWellFormed(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 2)
	leaves := uniformGrid(curve, 3)
	sp := &partition.Splitters{Curve: curve, Seps: []sfc.Key{leaves[21], leaves[43]}}
	var buf bytes.Buffer
	err := renderSVG(&buf, curve, leaves, sp, svgOptions{DrawCurve: true, DrawLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not an SVG document")
	}
	if got := strings.Count(out, "<rect"); got != len(leaves) {
		t.Fatalf("%d rects, want %d", got, len(leaves))
	}
	if !strings.Contains(out, "<polyline") {
		t.Fatal("curve polyline missing")
	}
	if got := strings.Count(out, "<text"); got != len(leaves) {
		t.Fatalf("%d labels, want %d", got, len(leaves))
	}
	// Three partitions, three colors.
	colors := 0
	for _, c := range palette[:3] {
		if strings.Contains(out, c) {
			colors++
		}
	}
	if colors != 3 {
		t.Fatalf("expected 3 partition colors, saw %d", colors)
	}
}

func TestRenderSVGAdaptive(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 2)
	leaves := octree.Complete(curve, []sfc.Key{{X: 5 << 20, Y: 9 << 20, Level: sfc.MaxLevel}}, 5)
	var buf bytes.Buffer
	if err := renderSVG(&buf, curve, leaves, nil, svgOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "<rect") != len(leaves) {
		t.Fatal("adaptive mesh not fully drawn")
	}
}

func TestRenderSVGRejects3D(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	var buf bytes.Buffer
	if err := renderSVG(&buf, curve, nil, nil, svgOptions{}); err == nil {
		t.Fatal("3D tree accepted")
	}
}
