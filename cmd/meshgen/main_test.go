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
