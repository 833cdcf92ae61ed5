package main

import (
	"math"
	"strings"
	"testing"

	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// TestParseKill covers the one rank@k parser of -kill in both modes: under
// -launch rank 0 is the driver process itself, so only spawned workers
// (lo = 1) are killable, while a local world can kill any rank (lo = 0);
// malformed schedules fail with a usable message.
func TestParseKill(t *testing.T) {
	rank, at, err := parseKill("2@3", 1, 4)
	if err != nil || rank != 2 || at != 3 {
		t.Fatalf("parseKill(2@3) = %d, %d, %v", rank, at, err)
	}
	if rank, at, err := parseKill("0@5", 0, 4); err != nil || rank != 0 || at != 5 {
		t.Fatalf("local parseKill(0@5) = %d, %d, %v", rank, at, err)
	}
	cases := []struct {
		arg  string
		lo   int
		frag string
	}{
		{"2", 1, "want rank@k"},
		{"x@3", 1, "bad rank"},
		{"0@3", 1, "out of range [1,4)"},
		{"4@3", 1, "out of range [1,4)"},
		{"-1@3", 0, "out of range [0,4)"},
		{"4@3", 0, "out of range [0,4)"},
		{"2@x", 1, "bad collective index"},
		{"2@-1", 1, "must be >= 0"},
	}
	for _, tc := range cases {
		if _, _, err := parseKill(tc.arg, tc.lo, 4); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("parseKill(%q, lo=%d) = %v, want error containing %q", tc.arg, tc.lo, err, tc.frag)
		}
	}
}

// TestProgramParse covers the shared rank-program flags: every process in
// the world parses the same strings, so a typo must fail identically and
// early everywhere. The model inputs -tol and -alpha are refused unless
// finite and >= 0, with the service's rule and wording.
func TestProgramParse(t *testing.T) {
	good := program{n: 1000, seed: 7, machineName: "Titan", curveName: "Morton",
		modeName: "flexible", distName: "uniform", tol: 0.2, alpha: 8}
	if _, _, _, _, err := good.parse(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	cases := []struct {
		mutate func(*program)
		frag   string
	}{
		{func(p *program) { p.machineName = "Cray" }, "unknown machine"},
		{func(p *program) { p.curveName = "peano" }, "unknown curve"},
		{func(p *program) { p.modeName = "greedy" }, "unknown mode"},
		{func(p *program) { p.distName = "cauchy" }, "unknown distribution"},
		{func(p *program) { p.n = 0 }, "at least one element"},
		{func(p *program) { p.alpha = math.NaN() }, "-alpha NaN is not finite and >= 0"},
		{func(p *program) { p.alpha = math.Inf(1) }, "-alpha +Inf is not finite and >= 0"},
		{func(p *program) { p.alpha = -50 }, "-alpha -50 is not finite and >= 0"},
		{func(p *program) { p.tol = math.NaN() }, "-tol NaN is not finite and >= 0"},
		{func(p *program) { p.tol = -0.1 }, "-tol -0.1 is not finite and >= 0"},
	}
	for _, tc := range cases {
		pr := good
		tc.mutate(&pr)
		if _, _, _, _, err := pr.parse(); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("mutated program: err = %v, want error containing %q", err, tc.frag)
		}
	}
}

// TestParseNamesRejectsUnknown: every name flag goes through its type's
// parser, so the documented spellings resolve and a misspelt curve is an
// error, not a silent Hilbert.
func TestParseNamesRejectsUnknown(t *testing.T) {
	good := program{n: 1000, seed: 7, machineName: "clemson-32", curveName: "Morton",
		modeName: "flexible", distName: "lognormal", tol: 0.2, alpha: 8}
	m, curve, mode, d, err := good.parse()
	if err != nil {
		t.Fatalf("documented spellings rejected: %v", err)
	}
	if m.Name != "Clemson-32" || curve.Kind != sfc.Morton || mode != partition.FlexibleTolerance || d != octree.LogNormal {
		t.Fatalf("documented spellings: %s, %v, %v, %v", m.Name, curve.Kind, mode, d)
	}
	cases := []struct{ machine, curve, mode, dist, frag string }{
		{"Clemson-32", "hilbrt", "optipart", "normal", "unknown curve"},
		{"Cray", "hilbert", "optipart", "normal", "unknown machine"},
		{"Clemson-32", "hilbert", "greedy", "normal", "unknown mode"},
		{"Clemson-32", "hilbert", "optipart", "cauchy", "unknown distribution"},
	}
	for _, tc := range cases {
		pr := good
		pr.machineName, pr.curveName, pr.modeName, pr.distName = tc.machine, tc.curve, tc.mode, tc.dist
		if _, _, _, _, err := pr.parse(); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("parse(%q, %q, %q, %q) = %v, want error containing %q", tc.machine, tc.curve, tc.mode, tc.dist, err, tc.frag)
		}
	}
}

// TestForwardRoundTrip pins the driver→worker flag forwarding: the worker
// must reconstruct the exact program, or the SPMD worlds diverge.
func TestForwardRoundTrip(t *testing.T) {
	pr := program{n: 12345, seed: -9, machineName: "Wisconsin-8", curveName: "hilbert",
		modeName: "optipart", distName: "lognormal", tol: 0.15, alpha: 6.5, steps: 4}
	args := pr.forward()
	got := map[string]string{}
	for i := 0; i+1 < len(args); i += 2 {
		got[args[i]] = args[i+1]
	}
	want := map[string]string{
		"-n": "12345", "-seed": "-9", "-machine": "Wisconsin-8", "-curve": "hilbert",
		"-mode": "optipart", "-dist": "lognormal", "-tol": "0.15", "-alpha": "6.5",
		"-steps": "4",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("forward()[%s] = %q, want %q", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("forward() carries %d flags, want %d: %v", len(got), len(want), args)
	}
}

// TestBodyRejectsEmptyRanks: a world where some rank would hold zero
// elements is refused before any process dials in.
func TestBodyRejectsEmptyRanks(t *testing.T) {
	pr := program{n: 3, seed: 1, machineName: "Titan", curveName: "hilbert",
		modeName: "equal", distName: "normal", tol: 0.3, alpha: 8}
	if _, err := pr.rankBody(8, fresh(), nil); err == nil || !strings.Contains(err.Error(), "empty ranks") {
		t.Fatalf("rankBody(8) with n=3: err = %v, want empty-ranks refusal", err)
	}
	if _, err := pr.rankBody(3, fresh(), nil); err != nil {
		t.Fatalf("rankBody(3) with n=3 rejected: %v", err)
	}
}
