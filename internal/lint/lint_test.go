package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Fixture packages live under testdata/src and are loaded with synthetic
// import paths so the scope helpers treat them as library code (they contain
// "/internal/", and "lintfixture" exempts them from the analyzer's
// own-package skip).
const fixturePrefix = "optipart/internal/lintfixture/"

var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	loaderErr    error
)

// fixtureLoader returns one process-wide loader: the source importer
// type-checks comm, sfc, and their stdlib dependencies exactly once across
// all fixture tests.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		sharedLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return sharedLoader
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := fixtureLoader(t)
	dir := filepath.Join(l.ModRoot, "internal", "lint", "testdata", "src", name)
	pkg, err := l.LoadDir(dir, fixturePrefix+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type wantMark struct {
	re      *regexp.Regexp
	matched int
}

// parseWants collects the // want "regexp" markers of every fixture file,
// keyed by file and line.
func parseWants(t *testing.T, pkg *Package) map[string]map[int]*wantMark {
	t.Helper()
	wants := map[string]map[int]*wantMark{}
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(fname)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", fname, i+1, m[1], err)
			}
			if wants[fname] == nil {
				wants[fname] = map[int]*wantMark{}
			}
			wants[fname][i+1] = &wantMark{re: re}
		}
	}
	return wants
}

// checkFixture runs the suite over one fixture and requires an exact
// correspondence between diagnostics and want markers: same file, same line,
// message matching the marker's regexp, one diagnostic per marker, and a
// positive column on every diagnostic.
func checkFixture(t *testing.T, name string) Result {
	t.Helper()
	pkg := loadFixture(t, name)
	res := RunPackage(pkg)
	wants := parseWants(t, pkg)
	total := 0
	for _, lines := range wants {
		total += len(lines)
	}
	for _, d := range res.Diagnostics {
		w := wants[d.File][d.Line]
		if w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q", d.File, d.Line, d.Message, w.re)
		}
		if d.Col <= 0 {
			t.Errorf("%s:%d: non-positive column %d", d.File, d.Line, d.Col)
		}
		w.matched++
	}
	for fname, lines := range wants {
		for line, w := range lines {
			switch w.matched {
			case 0:
				t.Errorf("%s:%d: want %q never reported", fname, line, w.re)
			case 1:
			default:
				t.Errorf("%s:%d: want %q matched %d diagnostics, expected one", fname, line, w.re, w.matched)
			}
		}
	}
	if len(res.Diagnostics) != total {
		t.Errorf("fixture %s: got %d diagnostics, want %d markers", name, len(res.Diagnostics), total)
	}
	return res
}

// checkSilent requires the suite to report nothing on a negative fixture.
func checkSilent(t *testing.T, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
	res := RunPackage(pkg)
	for _, d := range res.Diagnostics {
		t.Errorf("negative fixture %s: unexpected diagnostic: %s", name, d)
	}
	if len(res.Suppressions) != 0 {
		t.Errorf("negative fixture %s: unexpected suppressions: %v", name, res.Suppressions)
	}
}

func ruleCount(res Result, rule string) int {
	n := 0
	for _, d := range res.Diagnostics {
		if d.Rule == rule {
			n++
		}
	}
	return n
}

func TestCollectiveDivergeFixtures(t *testing.T) {
	res := checkFixture(t, "divergebad")
	if n := ruleCount(res, "collectivediverge"); n < 3 {
		t.Errorf("divergebad: %d collectivediverge findings, want at least 3", n)
	}
	checkSilent(t, "divergeok")
}

// TestDrainLoopFixture pins the checkpoint-campaign drain pattern from
// internal/ckpt: a step loop whose only rank-dependent exit is the drain
// hook passes the gate only with a reasoned //lint:ignore, and the same
// loop without the directive keeps firing.
func TestDrainLoopFixture(t *testing.T) {
	res := checkFixture(t, "drainloop")
	if n := ruleCount(res, "collectivediverge"); n != 1 {
		t.Errorf("drainloop: %d collectivediverge findings, want exactly the undirected loop", n)
	}
	if len(res.Suppressions) != 1 || res.Suppressions[0].Rule != "collectivediverge" {
		t.Errorf("drainloop: suppressions = %+v, want one honored collectivediverge directive", res.Suppressions)
	}
}

func TestNondeterminismFixtures(t *testing.T) {
	res := checkFixture(t, "nondetbad")
	if n := ruleCount(res, "nondeterminism"); n < 3 {
		t.Errorf("nondetbad: %d nondeterminism findings, want at least 3", n)
	}
	checkSilent(t, "nondetok")
}

func TestCostAccountingFixtures(t *testing.T) {
	res := checkFixture(t, "costbad")
	if n := ruleCount(res, "costaccounting"); n < 3 {
		t.Errorf("costbad: %d costaccounting findings, want at least 3", n)
	}
	checkSilent(t, "costok")
}

func TestAPIHygieneFixtures(t *testing.T) {
	res := checkFixture(t, "hygienebad")
	if n := ruleCount(res, "apihygiene"); n < 3 {
		t.Errorf("hygienebad: %d apihygiene findings, want at least 3", n)
	}
	checkSilent(t, "hygieneok")
}

// TestParPoolExemption pins the internal/par carve-out of the goroutine
// rule: a package whose import path ends in internal/par may spawn pool
// workers with raw go statements (no //lint:ignore needed), while the same
// code anywhere else is flagged.
func TestParPoolExemption(t *testing.T) {
	checkSilent(t, "internal/par")
	res := checkFixture(t, "parbad")
	if n := ruleCount(res, "nondeterminism"); n < 3 {
		t.Errorf("parbad: %d nondeterminism findings, want at least 3", n)
	}
	for _, d := range res.Diagnostics {
		if d.Rule != "nondeterminism" {
			t.Errorf("parbad: unexpected %s finding: %s", d.Rule, d)
		}
	}
}

// TestNetExemption pins the internal/net carve-out of the simulation-purity
// rules: the wire transport package may read wall clocks, spawn reader
// goroutines, and move bytes through channels (no //lint:ignore needed),
// while identical code anywhere else is flagged by nondeterminism and
// costaccounting alike.
func TestNetExemption(t *testing.T) {
	checkSilent(t, "internal/net")
	res := checkFixture(t, "netbad")
	if n := ruleCount(res, "nondeterminism"); n < 3 {
		t.Errorf("netbad: %d nondeterminism findings, want at least 3", n)
	}
	if n := ruleCount(res, "costaccounting"); n < 3 {
		t.Errorf("netbad: %d costaccounting findings, want at least 3", n)
	}
}

// TestSuppressions pins the directive semantics: a reasoned directive
// (standalone or trailing) silences exactly its rule on its target line and
// appears in the audit list; a reason-less or unknown-rule directive is
// itself a finding and suppresses nothing.
func TestSuppressions(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	res := RunPackage(pkg)

	if len(res.Suppressions) != 2 {
		t.Fatalf("got %d suppressions, want 2: %v", len(res.Suppressions), res.Suppressions)
	}
	for _, s := range res.Suppressions {
		if s.Rule != "nondeterminism" {
			t.Errorf("suppression rule = %q, want nondeterminism", s.Rule)
		}
		if s.Reason == "" {
			t.Errorf("suppression at %s:%d has empty reason", s.File, s.Line)
		}
	}
	// Standalone form: directive line targets the next line.
	if s := res.Suppressions[0]; s.Target != s.Line+1 {
		t.Errorf("standalone suppression targets line %d, want %d", s.Target, s.Line+1)
	}
	// Trailing form: directive targets its own line.
	if s := res.Suppressions[1]; s.Target != s.Line {
		t.Errorf("trailing suppression targets line %d, want %d", s.Target, s.Line)
	}

	var rules []string
	for _, d := range res.Diagnostics {
		rules = append(rules, d.Rule)
	}
	// In order: the reason-less directive, the wall-clock read it failed to
	// silence, and the unknown-rule directive.
	want := []string{"lintdirective", "nondeterminism", "lintdirective"}
	if fmt.Sprint(rules) != fmt.Sprint(want) {
		t.Fatalf("diagnostic rules = %v, want %v", rules, want)
	}
	if msg := res.Diagnostics[0].Message; !strings.Contains(msg, "without a reason") {
		t.Errorf("first diagnostic %q should flag the missing reason", msg)
	}
	if msg := res.Diagnostics[2].Message; !strings.Contains(msg, "unknown rule") {
		t.Errorf("last diagnostic %q should flag the unknown rule", msg)
	}
}

func TestLockOrderFixtures(t *testing.T) {
	res := checkFixture(t, "lockbad")
	if n := ruleCount(res, "lockorder"); n != 8 {
		t.Errorf("lockbad: %d lockorder findings, want 8 (both edges of four cycles)", n)
	}
	var viaCall int
	for _, d := range res.Diagnostics {
		if strings.Contains(d.Message, "via call to flush") {
			viaCall++
		}
	}
	if viaCall != 1 {
		t.Errorf("lockbad: %d via-call findings, want exactly the register->flush edge", viaCall)
	}
	checkSilent(t, "lockok")
}

func TestCondWaitFixtures(t *testing.T) {
	res := checkFixture(t, "condbad")
	if n := ruleCount(res, "condwait"); n != 5 {
		t.Errorf("condbad: %d condwait findings, want 5", n)
	}
	checkSilent(t, "condok")
}

// TestGoroutineLeakFixtures runs under a net-suffixed synthetic path so the
// nondeterminism goroutine rule stays out of the way and the leak rule's
// verdicts stand alone.
func TestGoroutineLeakFixtures(t *testing.T) {
	res := checkFixture(t, "leakbad/internal/net")
	if n := ruleCount(res, "goroutineleak"); n != 4 {
		t.Errorf("leakbad: %d goroutineleak findings, want 4", n)
	}
	for _, d := range res.Diagnostics {
		if d.Rule != "goroutineleak" {
			t.Errorf("leakbad: unexpected %s finding: %s", d.Rule, d)
		}
	}
	checkSilent(t, "leakok/internal/net")
}

func TestUnboundedGrowthFixtures(t *testing.T) {
	res := checkFixture(t, "growthbad")
	if n := ruleCount(res, "unboundedgrowth"); n != 4 {
		t.Errorf("growthbad: %d unboundedgrowth findings, want 4", n)
	}
	checkSilent(t, "growthok")
}

// TestFixturePositions pins the exact file:line:col:rule tuple of every
// diagnostic across all fixtures against testdata/positions.golden. Run with
// UPDATE_LINT_GOLDEN=1 to regenerate after editing fixtures.
func TestFixturePositions(t *testing.T) {
	fixtures := []string{"divergebad", "nondetbad", "costbad", "hygienebad", "parbad", "netbad", "suppress", "drainloop", "lockbad", "condbad", "leakbad/internal/net", "growthbad"}
	l := fixtureLoader(t)
	srcRoot := filepath.Join(l.ModRoot, "internal", "lint", "testdata", "src")
	var lines []string
	for _, name := range fixtures {
		res := RunPackage(loadFixture(t, name))
		for _, d := range res.Diagnostics {
			rel, err := filepath.Rel(srcRoot, d.File)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s:%d:%d: %s", filepath.ToSlash(rel), d.Line, d.Col, d.Rule))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join(l.ModRoot, "internal", "lint", "testdata", "positions.golden")
	if os.Getenv("UPDATE_LINT_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_LINT_GOLDEN=1 to generate)", err)
	}
	if string(data) != got {
		t.Errorf("diagnostic positions drifted from %s:\n--- golden ---\n%s--- got ---\n%s", golden, data, got)
	}
}

// TestSeededDivergenceDetected is the acceptance check from the issue: a
// scratch package with a rank-conditional Allreduce must be flagged, so the
// CI gate would fail on it.
func TestSeededDivergenceDetected(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

import "optipart/internal/comm"

func skewed(c *comm.Comm, vals []float64) []float64 {
	if c.Rank()%2 == 0 {
		return comm.Allreduce(c, vals, 8, comm.SumF64)
	}
	return vals
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := fixtureLoader(t)
	pkg, err := l.LoadDir(dir, fixturePrefix+"scratch")
	if err != nil {
		t.Fatal(err)
	}
	res := RunPackage(pkg)
	if n := ruleCount(res, "collectivediverge"); n != 1 {
		t.Fatalf("seeded rank-conditional Allreduce: %d collectivediverge findings, want 1: %v", n, res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if !strings.Contains(d.Message, "Allreduce") {
		t.Errorf("diagnostic %q should name the Allreduce", d.Message)
	}
}

// TestModuleClean loads every package of the module and requires the suite
// to pass — the same gate scripts/ci.sh runs via cmd/optipartlint.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped with -short")
	}
	l := fixtureLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	for _, pkg := range pkgs {
		res.Merge(RunPackage(pkg))
	}
	for _, d := range res.Diagnostics {
		t.Errorf("module not lint-clean: %s", d)
	}
	for _, s := range res.Suppressions {
		t.Logf("active suppression: %s", s)
	}
}
