package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
)

// localProgram is a small local run of the default program.
var localProgram = program{n: 20000, seed: 1, machineName: "Clemson-32", curveName: "hilbert",
	modeName: "optipart", distName: "normal", tol: 0.3, alpha: machine.DefaultAlpha}

// TestLocalRun drives the local mode's run function on a healthy 8-rank
// world: it prints the header and the full partition quality table.
func TestLocalRun(t *testing.T) {
	plan, err := buildPlan(8, "", "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runLocal(&out, localProgram, 8, plan, false); err != nil {
		t.Fatalf("healthy local run failed: %v", err)
	}
	for _, want := range []string{
		"machine Clemson-32 | curve Hilbert | mode optipart | 20000 elements on 8 ranks",
		"# partition quality", "achieved tolerance", "total boundary octants",
		"predicted app step (s), Eq. (3)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("local run output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestLocalKill: -kill 3@5 on a local world tears it down with a
// *RankFailure naming rank 3, and the run prints the failure instead of a
// table.
func TestLocalKill(t *testing.T) {
	plan, err := buildPlan(8, "3@5", "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = runLocal(&out, localProgram, 8, plan, false)
	var rf *comm.RankFailure
	if !errors.As(err, &rf) || rf.Rank != 3 {
		t.Fatalf("local run with -kill 3@5: err = %v, want *RankFailure naming rank 3", err)
	}
	if !strings.Contains(out.String(), "world failed:") || strings.Contains(out.String(), "partition quality") {
		t.Errorf("failed local run printed:\n%s", out.String())
	}
}

// TestBuildPlanValid covers the shapes each fault flag accepts.
func TestBuildPlanValid(t *testing.T) {
	plan, err := buildPlan(8, "3@40", "5@2.5,1.5")
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

	// Straggler with tc multiplier only.
	plan, err = buildPlan(8, "", "2@3")
	if err != nil {
		t.Fatalf("tc-only straggler rejected: %v", err)
	}
	if s := plan.Stragglers[0]; s.TcMult != 3 || s.TwMult != 1 {
		t.Fatalf("tc-only straggler misparsed: %+v", s)
	}

	// No fault flags at all: an empty plan, so the run has no hooks and no
	// stall watchdog.
	plan, err = buildPlan(8, "", "")
	if err != nil || !plan.Empty() {
		t.Fatalf("flagless plan not empty: %+v, %v", plan, err)
	}
}

// TestBuildPlanRejects: out-of-range or malformed fault arguments exit
// with a clear error, not a panic or a silently ignored fault.
func TestBuildPlanRejects(t *testing.T) {
	cases := []struct {
		name        string
		kill, strag string
		frag        string
	}{
		{"kill rank too high", "8@10", "", "out of range [0,8)"},
		{"kill rank negative", "-1@10", "", "out of range [0,8)"},
		{"kill negative collective", "2@-3", "", "must be >= 0"},
		{"kill missing @", "2", "", "want rank@k"},
		{"kill bad index", "2@x", "", "bad collective index"},
		{"straggler rank too high", "", "9@2", "out of range [0,8)"},
		{"straggler missing @", "", "2", "want rank@tcmult[,twmult]"},
		{"straggler zero mult", "", "2@0", "must be > 0"},
		{"straggler negative tw", "", "2@2,-1", "must be > 0"},
		{"straggler bad mult", "", "2@fast", "bad tc multiplier"},
	}
	for _, tc := range cases {
		_, err := buildPlan(8, tc.kill, tc.strag)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: buildPlan = %v, want error containing %q", tc.name, err, tc.frag)
		}
	}
	if _, err := buildPlan(0, "", ""); err == nil {
		t.Errorf("p=0 accepted")
	}
}

// TestValidateWorkers: -workers is range-checked in the buildPlan style,
// failing with a usable message before any rank starts.
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
