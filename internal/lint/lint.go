// Package lint is the analysis framework behind cmd/optipartlint: a
// stdlib-only (go/parser + go/types, no x/tools) vet harness that enforces
// the repo's three load-bearing disciplines as compile-time errors instead
// of runtime surprises:
//
//   - SPMD: every rank executes the same collective sequence
//     (collectivediverge),
//   - determinism: golden transcripts are bit-reproducible
//     (nondeterminism),
//   - cost accounting: every byte moved is charged to comm.Stats
//     (costaccounting),
//
// plus apihygiene, which keeps the PR-3 performance work (generic sorts,
// memoized curves, structured panics, rank order) from regressing, and four
// concurrency-protocol rules: lockorder, condwait, goroutineleak and
// unboundedgrowth. Each rule keeps its place by catching a defect nothing
// else in CI catches (DESIGN.md, "Static invariants").
//
// Each analyzer walks the typed AST of one package and reports Diagnostics.
// A diagnostic can be suppressed — with an audit trail — by a
//
//	//lint:ignore <rule> <reason>
//
// comment on the offending line or on its own line immediately above; the
// reason is mandatory, and `optipartlint -listignores` prints every active
// suppression for review.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding, positioned for editors and the -json output.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Suppression is one honored //lint:ignore directive.
type Suppression struct {
	File   string `json:"file"`
	Line   int    `json:"line"`   // line of the directive comment
	Target int    `json:"target"` // line whose diagnostics it silences
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
}

func (s Suppression) String() string {
	return fmt.Sprintf("%s:%d: %s suppressed: %s", s.File, s.Target, s.Rule, s.Reason)
}

// Analyzer is one named rule family.
type Analyzer struct {
	Name string // the rule id used in diagnostics and //lint:ignore
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{CollectiveDiverge, Nondeterminism, CostAccounting, APIHygiene, LockOrder, CondWait, GoroutineLeak, UnboundedGrowth}
}

// RuleNames returns the valid rule ids, for directive validation.
func RuleNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Path  string // import path of the package under analysis

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a diagnostic at pos under the running analyzer's rule.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of running the suite over one or more packages.
type Result struct {
	Diagnostics  []Diagnostic  // surviving (unsuppressed) findings, sorted
	Suppressions []Suppression // honored directives, sorted
}

// directiveRule is the synthetic rule id for malformed //lint:ignore
// comments. It is not suppressible: a suppression that cannot be audited is
// itself a finding.
const directiveRule = "lintdirective"

// RunPackage runs every analyzer over pkg and resolves suppressions.
func RunPackage(pkg *Package) Result {
	var raw []Diagnostic
	for _, a := range Analyzers() {
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			analyzer: a,
			diags:    &raw,
		}
		a.Run(pass)
	}
	sups, badDirectives := collectSuppressions(pkg)
	raw = append(raw, badDirectives...)

	// A suppression silences diagnostics of its rule on its target line.
	type supKey struct {
		file string
		line int
		rule string
	}
	byKey := map[supKey]bool{}
	for _, s := range sups {
		byKey[supKey{s.File, s.Target, s.Rule}] = true
	}
	var kept []Diagnostic
	for _, d := range raw {
		if d.Rule != directiveRule && byKey[supKey{d.File, d.Line, d.Rule}] {
			continue
		}
		kept = append(kept, d)
	}
	sortDiagnostics(kept)
	slices.SortFunc(sups, func(a, b Suppression) int {
		if a.File != b.File {
			return strings.Compare(a.File, b.File)
		}
		return a.Line - b.Line
	})
	return Result{Diagnostics: kept, Suppressions: sups}
}

// Merge folds other into r.
func (r *Result) Merge(other Result) {
	r.Diagnostics = append(r.Diagnostics, other.Diagnostics...)
	r.Suppressions = append(r.Suppressions, other.Suppressions...)
	sortDiagnostics(r.Diagnostics)
}

func sortDiagnostics(ds []Diagnostic) {
	slices.SortFunc(ds, func(a, b Diagnostic) int {
		if a.File != b.File {
			return strings.Compare(a.File, b.File)
		}
		if a.Line != b.Line {
			return a.Line - b.Line
		}
		if a.Col != b.Col {
			return a.Col - b.Col
		}
		return strings.Compare(a.Rule, b.Rule)
	})
}

// collectSuppressions parses //lint:ignore directives out of every comment
// in the package. A directive on a line with code targets that line; a
// directive standing alone targets the next line. Malformed directives
// (unknown rule, missing reason) become lintdirective diagnostics.
func collectSuppressions(pkg *Package) ([]Suppression, []Diagnostic) {
	valid := map[string]bool{}
	for _, name := range RuleNames() {
		valid[name] = true
	}
	var sups []Suppression
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				report := func(msg string) {
					bad = append(bad, Diagnostic{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule:    directiveRule,
						Message: msg,
					})
				}
				if len(fields) == 0 {
					report("//lint:ignore needs a rule and a reason: //lint:ignore <rule> <reason>")
					continue
				}
				rule := fields[0]
				if !valid[rule] {
					report(fmt.Sprintf("//lint:ignore names unknown rule %q (valid: %s)",
						rule, strings.Join(RuleNames(), ", ")))
					continue
				}
				reason := strings.TrimSpace(text[strings.Index(text, rule)+len(rule):])
				if reason == "" {
					report(fmt.Sprintf("//lint:ignore %s without a reason: suppressions must say why", rule))
					continue
				}
				target := pos.Line
				if !codeLines(pkg.Fset, f)[pos.Line] {
					target = pos.Line + 1 // standalone directive targets the next line
				}
				sups = append(sups, Suppression{
					File: pos.Filename, Line: pos.Line, Target: target,
					Rule: rule, Reason: reason,
				})
			}
		}
	}
	return sups, bad
}

// codeLineCache memoizes, per file, which lines carry code tokens (idents
// and literals), distinguishing trailing directives from standalone ones.
var codeLineCache = map[*ast.File]map[int]bool{}

func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	if m, ok := codeLineCache[f]; ok {
		return m
	}
	m := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Ident, *ast.BasicLit:
			m[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	codeLineCache[f] = m
	return m
}

// Package-scope helpers shared by the analyzers. The module's layering:
// internal/comm is the one package allowed to move bytes and spawn
// goroutines (it charges Stats itself); internal/lint is the analyzer.
func isCommPkg(path string) bool { return strings.HasSuffix(path, "internal/comm") }

// isParPkg matches internal/par, the sanctioned intra-rank worker pool: its
// deterministic primitives (static chunking, fixed combine trees) are the
// one place outside comm allowed to spawn goroutines.
func isParPkg(path string) bool { return strings.HasSuffix(path, "internal/par") }

// isNetPkg matches internal/net, the real wire transport. Its sockets,
// goroutines, deadlines, and wall clocks are the genuine article — the
// package exists to move bytes between processes and to measure real time
// (heartbeats, backoff, calibration) — so the simulation-purity rules
// (costaccounting, nondeterminism) do not apply there. The seam keeps the
// model honest anyway: everything internal/net carries re-enters the world
// through comm.StepState, where the BSP clocks and Stats are charged.
func isNetPkg(path string) bool { return strings.HasSuffix(path, "internal/net") }

func isLintPkg(path string) bool {
	return strings.Contains(path, "internal/lint") && !strings.Contains(path, "lintfixture")
}

// isLibraryPkg reports whether path is library code (the root facade or
// anything under internal/), as opposed to cmd/ and examples/ drivers,
// which may legitimately touch wall clocks and print in map order.
func isLibraryPkg(path string) bool {
	return !strings.Contains(path, "/cmd/") && !strings.Contains(path, "/examples/") &&
		(strings.Contains(path, "/internal/") || !strings.Contains(path, "/"))
}
