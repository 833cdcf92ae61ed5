// Package lint is the analysis framework behind cmd/optipartlint: a
// stdlib-only (go/parser + go/types, no x/tools) vet harness for the
// hazards that no run-time check sees:
//
//   - nondeterminism: wall clocks, global rand, goroutines and map-ordered
//     output that golden transcripts would only catch on the run that
//     flips,
//   - apihygiene: the performance decisions (generic sorts, memoized
//     curves, rank order) and structured panics, which no test times,
//   - alloczero: every //alloc:zero function held to the compiler's
//     escape analysis.
//
// Each rule is kept by a committed mutant of production code that only
// TestModuleClean kills (scripts/mutants/, the rule table in DESIGN.md's
// "Static invariants"); a hazard that a behavioural test catches is left
// to that test.
//
// Each analyzer walks the typed AST of one package and reports Diagnostics.
// A diagnostic can be suppressed — with an audit trail — by a
//
//	//lint:ignore <rule> <reason>
//
// comment on the offending line or on its own line immediately above; the
// reason is mandatory, and `optipartlint -listignores` prints every active
// suppression for review. A suppression that silences nothing is stale: it
// is reported as a note, not a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding, positioned for editors.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Suppression is one honored //lint:ignore directive.
type Suppression struct {
	File   string
	Line   int // line of the directive comment
	Target int // line whose diagnostics it silences
	Rule   string
	Reason string
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
	return []*Analyzer{Nondeterminism, APIHygiene, AllocZero}
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

	pkg       *Package
	analyzer  *Analyzer
	diags     *[]Diagnostic
	contracts *int // //alloc:zero functions found, for the vacuous-run guard
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
	Stale        []Suppression // honored directives that silenced nothing
	Contracts    int           // //alloc:zero functions checked
}

// directiveRule is the synthetic rule id for malformed //lint:ignore
// comments. It is not suppressible: a suppression that cannot be audited is
// itself a finding.
const directiveRule = "lintdirective"

// RunPackage runs every analyzer over pkg and resolves suppressions.
func RunPackage(pkg *Package) Result {
	var raw []Diagnostic
	var contracts int
	for _, a := range Analyzers() {
		pass := &Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Path:      pkg.Path,
			pkg:       pkg,
			analyzer:  a,
			diags:     &raw,
			contracts: &contracts,
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
	silenced := map[supKey]int{}
	for _, s := range sups {
		silenced[supKey{s.File, s.Target, s.Rule}] = 0
	}
	var kept []Diagnostic
	for _, d := range raw {
		k := supKey{d.File, d.Line, d.Rule}
		if n, ok := silenced[k]; ok && d.Rule != directiveRule {
			silenced[k] = n + 1
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
	var stale []Suppression
	for _, s := range sups {
		if silenced[supKey{s.File, s.Target, s.Rule}] == 0 {
			stale = append(stale, s)
		}
	}
	return Result{Diagnostics: kept, Suppressions: sups, Stale: stale, Contracts: contracts}
}

// Merge folds other into r.
func (r *Result) Merge(other Result) {
	r.Diagnostics = append(r.Diagnostics, other.Diagnostics...)
	r.Suppressions = append(r.Suppressions, other.Suppressions...)
	r.Stale = append(r.Stale, other.Stale...)
	r.Contracts += other.Contracts
	sortDiagnostics(r.Diagnostics)
}

// CheckModule runs the suite over every package of the module. A module
// with no //alloc:zero contract is an error, not a pass: alloczero would
// have checked nothing, which is also what a broken contract scan looks
// like.
func (l *Loader) CheckModule() (Result, error) {
	var res Result
	pkgs, err := l.LoadModule()
	if err != nil {
		return res, err
	}
	for _, pkg := range pkgs {
		res.Merge(RunPackage(pkg))
	}
	if res.Contracts == 0 {
		return res, fmt.Errorf("lint: no //alloc:zero contracts in module %s: alloczero would be vacuous", l.ModPath)
	}
	return res, nil
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
		var lines map[int]bool // f's code lines, built at its first directive
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
				if lines == nil {
					lines = codeLines(pkg.Fset, f)
				}
				target := pos.Line
				if !lines[pos.Line] {
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

// codeLines reports which lines of f carry code tokens (idents and
// literals), distinguishing trailing directives from standalone ones.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	m := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Ident, *ast.BasicLit:
			m[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
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
// (heartbeats, backoff, calibration) — so nondeterminism does not apply
// there. The seam keeps the model honest anyway: everything internal/net
// carries re-enters the world through comm.StepState, where the BSP clocks
// and Stats are charged.
func isNetPkg(path string) bool { return strings.HasSuffix(path, "internal/net") }

func isLintPkg(path string) bool {
	return strings.Contains(path, "internal/lint") && !strings.Contains(path, "lintfixture")
}

// isLibraryPkg reports whether path is library code (anything under
// internal/), as opposed to cmd/ and examples/ drivers, which may
// legitimately touch wall clocks and print in map order.
func isLibraryPkg(path string) bool {
	return !strings.Contains(path, "/cmd/") && !strings.Contains(path, "/examples/") &&
		strings.Contains(path, "/internal/")
}

// calleeFunc resolves the *types.Func a call invokes, unwrapping generic
// instantiation syntax; nil for builtins, conversions, and function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
			continue
		case *ast.IndexExpr:
			fun = f.X
			continue
		case *ast.IndexListExpr:
			fun = f.X
			continue
		}
		break
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// funcBodies returns the file's function declarations that have bodies,
// each an independent analysis scope; the analyzers reach the literals
// nested in a body through its walk.
func funcBodies(f *ast.File) []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			decls = append(decls, fd)
		}
	}
	return decls
}
