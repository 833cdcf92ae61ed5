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
// type-checks sfc and its stdlib dependencies exactly once across all
// fixture tests.
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

func TestNondeterminismFixtures(t *testing.T) {
	res := checkFixture(t, "nondetbad")
	if n := ruleCount(res, "nondeterminism"); n < 3 {
		t.Errorf("nondetbad: %d nondeterminism findings, want at least 3", n)
	}
	checkSilent(t, "nondetok")
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

// TestNetExemption pins the internal/net carve-out of nondeterminism: the
// wire transport package may read wall clocks and spawn reader goroutines
// (no //lint:ignore needed), while identical code anywhere else is flagged.
func TestNetExemption(t *testing.T) {
	checkSilent(t, "internal/net")
	res := checkFixture(t, "netbad")
	if n := ruleCount(res, "nondeterminism"); n < 3 {
		t.Errorf("netbad: %d nondeterminism findings, want at least 3", n)
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

// TestFixturePositions pins the exact file:line:col:rule tuple of every
// diagnostic across all fixtures against testdata/positions.golden. Run with
// UPDATE_LINT_GOLDEN=1 to regenerate after editing fixtures.
func TestFixturePositions(t *testing.T) {
	fixtures := []string{"nondetbad", "hygienebad", "parbad", "netbad", "suppress", "allocbad"}
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

// maxSuppressions is the ratchet on the module's active //lint:ignore
// directives: 17 alloczero and 5 nondeterminism. A change that needs one
// more waiver raises it, and says why; a change that removes one lowers it.
const maxSuppressions = 22

// TestModuleClean runs the suite, alloczero's -m build included, over every
// package of the module and requires it to pass — the same gate
// scripts/ci.sh runs via cmd/optipartlint. Removing any one waiver fails it,
// and so does adding one past maxSuppressions.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check and -m build are slow; skipped with -short")
	}
	res, err := fixtureLoader(t).CheckModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("module not lint-clean: %s", d)
	}
	for _, s := range res.Stale {
		t.Errorf("stale suppression silences nothing: %s", s)
	}
	if n := len(res.Suppressions); n > maxSuppressions {
		t.Errorf("%d active suppressions, more than the %d allowed: fix the findings instead, or raise maxSuppressions with a reason", n, maxSuppressions)
	}
	t.Logf("%d //alloc:zero contracts, %d active suppressions", res.Contracts, len(res.Suppressions))
}
