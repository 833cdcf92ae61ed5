package main

import (
	"strings"
	"testing"

	"optipart"
)

// TestBuildPlanValid covers the shapes each flag accepts.
func TestBuildPlanValid(t *testing.T) {
	plan, err := buildPlan(8, "3@40", "5@2.5,1.5", 0.1, 0.02, 6, 1)
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if len(plan.Kills) != 1 || plan.Kills[0].Rank != 3 || plan.Kills[0].AtCollective != 40 {
		t.Fatalf("kill misparsed: %+v", plan.Kills)
	}
	s := plan.Stragglers[0]
	if s.Rank != 5 || s.TcMult != 2.5 || s.TwMult != 1.5 {
		t.Fatalf("straggler misparsed: %+v", s)
	}
	if plan.Net == nil || plan.Net.Empty() {
		t.Fatalf("loss flags produced no NetPlan")
	}
	if got := plan.Net.Transport.MaxRetries; got != 6 {
		t.Fatalf("retry cap misparsed: %d", got)
	}
	if err := plan.Net.Validate(8); err != nil {
		t.Fatalf("built NetPlan invalid: %v", err)
	}

	// Straggler with tc multiplier only.
	plan, err = buildPlan(8, "", "2@3", 0, 0, 0, 1)
	if err != nil {
		t.Fatalf("tc-only straggler rejected: %v", err)
	}
	if s := plan.Stragglers[0]; s.TcMult != 3 || s.TwMult != 1 {
		t.Fatalf("tc-only straggler misparsed: %+v", s)
	}

	// No fault flags at all: an empty plan, so main takes the plain Run path.
	plan, err = buildPlan(8, "", "", 0, 0, 0, 1)
	if err != nil || !plan.Empty() {
		t.Fatalf("flagless plan not empty: %+v, %v", plan, err)
	}
}

// TestBuildPlanRejects covers the satellite requirement: out-of-range or
// malformed fault arguments exit with a clear error, not a panic or a
// silently ignored fault.
func TestBuildPlanRejects(t *testing.T) {
	cases := []struct {
		name          string
		kill, strag   string
		loss, corrupt float64
		retry         int
		frag          string
	}{
		{"kill rank too high", "8@10", "", 0, 0, 0, "out of range [0,8)"},
		{"kill rank negative", "-1@10", "", 0, 0, 0, "out of range [0,8)"},
		{"kill negative collective", "2@-3", "", 0, 0, 0, "must be >= 0"},
		{"kill missing @", "2", "", 0, 0, 0, "want rank@value"},
		{"kill bad index", "2@x", "", 0, 0, 0, "bad collective index"},
		{"straggler rank too high", "", "9@2", 0, 0, 0, "out of range [0,8)"},
		{"straggler zero mult", "", "2@0", 0, 0, 0, "must be > 0"},
		{"straggler negative tw", "", "2@2,-1", 0, 0, 0, "must be > 0"},
		{"straggler bad mult", "", "2@fast", 0, 0, 0, "bad tc multiplier"},
		{"loss above one", "", "", 1.5, 0, 0, "must be in [0,1]"},
		{"loss negative", "", "", -0.1, 0, 0, "must be in [0,1]"},
		{"corrupt above one", "", "", 0, 2, 0, "must be in [0,1]"},
		{"retry negative", "", "", 0.1, 0, -1, "must be >= 0"},
		{"retry without loss", "", "", 0, 0, 4, "needs -loss or -corrupt"},
	}
	for _, tc := range cases {
		_, err := buildPlan(8, tc.kill, tc.strag, tc.loss, tc.corrupt, tc.retry, 1)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: buildPlan = %v, want error containing %q", tc.name, err, tc.frag)
		}
	}
	if _, err := buildPlan(0, "", "", 0, 0, 0, 1); err == nil {
		t.Errorf("p=0 accepted")
	}
}

// TestValidateWorkers covers the -workers satellite: the flag is
// range-checked in the buildPlan style, failing with a usable message
// before any goroutines start.
func TestValidateWorkers(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64, maxWorkers} {
		if err := validateWorkers(w); err != nil {
			t.Errorf("validateWorkers(%d) = %v, want nil", w, err)
		}
	}
	cases := []struct {
		w    int
		frag string
	}{
		{0, "need at least one worker"},
		{-3, "need at least one worker"},
		{maxWorkers + 1, "oversubscribes"},
	}
	for _, tc := range cases {
		err := validateWorkers(tc.w)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("validateWorkers(%d) = %v, want error containing %q", tc.w, err, tc.frag)
		}
	}
}

// TestParseNamesRejectsUnknown: every name flag goes through its type's
// parser, so a misspelt curve is an error, not a silent Hilbert.
func TestParseNamesRejectsUnknown(t *testing.T) {
	if _, kind, mode, d, err := parseNames("clemson-32", "Morton", "flexible", "lognormal"); err != nil ||
		kind != optipart.Morton || mode != optipart.FlexibleTolerance || d != optipart.LogNormal {
		t.Fatalf("documented spellings: %v, %v, %v, %v", kind, mode, d, err)
	}
	cases := []struct{ machine, curve, mode, dist, frag string }{
		{"Clemson-32", "hilbrt", "optipart", "normal", "unknown curve"},
		{"Cray", "hilbert", "optipart", "normal", "unknown machine"},
		{"Clemson-32", "hilbert", "greedy", "normal", "unknown mode"},
		{"Clemson-32", "hilbert", "optipart", "cauchy", "unknown distribution"},
	}
	for _, tc := range cases {
		if _, _, _, _, err := parseNames(tc.machine, tc.curve, tc.mode, tc.dist); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("parseNames(%q, %q, %q, %q) = %v, want error containing %q", tc.machine, tc.curve, tc.mode, tc.dist, err, tc.frag)
		}
	}
}
