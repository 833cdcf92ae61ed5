package main

import (
	"strings"
	"testing"

	"optipart/internal/octree"
	"optipart/internal/sfc"
)

// TestParseNamesRejectsUnknown: a misspelt -curve is an error, not a
// silent Hilbert.
func TestParseNamesRejectsUnknown(t *testing.T) {
	if kind, d, err := parseNames("morton", "Uniform"); err != nil || kind != sfc.Morton || d != octree.Uniform {
		t.Fatalf("documented spellings: %v, %v, %v", kind, d, err)
	}
	if _, _, err := parseNames("hilbrt", "normal"); err == nil || !strings.Contains(err.Error(), "unknown curve") {
		t.Errorf("-curve hilbrt: err = %v, want an unknown-curve error", err)
	}
	if _, _, err := parseNames("hilbert", "cauchy"); err == nil || !strings.Contains(err.Error(), "unknown distribution") {
		t.Errorf("-dist cauchy: err = %v, want an unknown-distribution error", err)
	}
}

// TestCheckFlags: every numeric flag is range-checked before any work, so a
// bad value is a one-line error instead of a panic or a runaway refinement.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		dim, seeds, depth, svgP int
		svg                     string
		want                    string // "" accepts
	}{
		{3, 1000, 8, 0, "", ""},
		{2, 1, 1, 4, "mesh.svg", ""},
		{3, 1, sfc.MaxLevel, 1, "", ""},
		{4, 1000, 8, 0, "", "-dim 4"},
		{0, 1000, 8, 0, "", "-dim 0"},
		{3, 0, 8, 0, "", "-seeds 0"},
		{3, -5, 8, 0, "", "-seeds -5"},
		{3, 1000, 0, 0, "", "-depth 0"},
		{3, 1000, sfc.MaxLevel + 1, 0, "", "-depth 31"},
		{3, 1000, 300, 0, "", "-depth 300"},
		{2, 1000, 8, -1, "", "-svg-p -1"},
		{3, 1000, 8, 0, "mesh.svg", "-svg requires -dim 2"},
	} {
		err := checkFlags(tc.dim, tc.seeds, tc.depth, tc.svgP, tc.svg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: rejected: %v", tc, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%+v: err = %v, want one starting %q", tc, err, tc.want)
		}
	}
}
