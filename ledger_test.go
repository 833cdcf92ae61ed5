package optipart_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestLedgerInventory keeps DESIGN.md's rent ledger and the tree in step:
// every directory under internal/, cmd/ and examples/ has a row, every
// row's path exists, and every row's Lines cell is the path's current count
// of non-test lines (see goLines); a `frozen` row is not counted.
func TestLedgerInventory(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## Rent ledger")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Rent ledger" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	table, _, _ := strings.Cut(section, "\n**Kept without a production caller**")

	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\| ([^|]*) \\|").FindAllStringSubmatch(table, -1) {
		path, cell := m[1], strings.TrimSpace(m[2])
		rows[path] = true
		info, err := os.Stat(filepath.FromSlash(path))
		if err != nil {
			t.Errorf("ledger row `%s` names a path that does not exist", path)
			continue
		}
		if cell == "frozen" {
			continue
		}
		want, err := strconv.Atoi(cell)
		if err != nil {
			t.Errorf("ledger row `%s`: Lines cell %q is neither a count nor `frozen`", path, cell)
			continue
		}
		if got := goLines(t, path, info.IsDir()); got != want {
			t.Errorf("ledger row `%s` says %d lines, the tree has %d", path, want, got)
		}
	}
	for _, parent := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if path := parent + "/" + e.Name(); e.IsDir() && !rows[path] {
				t.Errorf("%s has no row in DESIGN.md's rent ledger", path)
			}
		}
	}
}

// goLines counts the newlines of a ledger path's non-test Go: the file
// itself for a file row, the top-level non-test .go files for a directory
// row. Subdirectories, testdata included, have rows of their own or are not
// counted.
func goLines(t *testing.T, path string, dir bool) int {
	t.Helper()
	files := []string{path}
	if dir {
		matches, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = files[:0]
		for _, f := range matches {
			if !strings.HasSuffix(f, "_test.go") {
				files = append(files, f)
			}
		}
	}
	n := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(b, []byte("\n"))
	}
	return n
}

// docsNamingTests are the documents whose backticked test and API names
// must exist and whose DESIGN.md section citations must resolve.
var docsNamingTests = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// codeSpans matches what the docs put inside backticks: a fenced block or
// an inline span.
var codeSpans = regexp.MustCompile("(?s)```.*?```|`[^`]+`")

// walkGo calls visit on every .go file of the module outside testdata and
// dot directories.
func walkGo(t *testing.T, visit func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			return visit(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsNameDeclaredTests keeps the docs honest about the suite: every
// TestX, FuzzX, BenchmarkX and ExampleX named inside backticks (inline or
// fenced) in docsNamingTests is declared in some _test.go of the module. A
// glob form such as `Benchmark*` names no one test and is skipped.
func TestDocsNameDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	walkGo(t, func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllSubmatch(b, -1) {
				declared[string(m[1])] = true
			}
		}
		return nil
	})
	name := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)\w*\**`)
	for _, doc := range docsNamingTests {
		b, err := os.ReadFile(filepath.FromSlash(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans.FindAllString(string(b), -1) {
			for _, n := range name.FindAllString(span, -1) {
				if strings.HasSuffix(n, "*") || declared[n] {
					continue
				}
				if n == "Test" || n == "Fuzz" || n == "Benchmark" || n == "Example" {
					continue // the bare word, as in "an `Example` test"
				}
				t.Errorf("%s names %s in backticks, but no _test.go declares it", doc, n)
			}
		}
	}
}

// TestDocsNameDeclaredAPI keeps the docs honest about the code: every
// `pkg.Name` and `pkg.Type.Member` inside backticks in docsNamingTests,
// where pkg is the name of a package in this module or the module path,
// names a package-level identifier or a method that pkg declares in a
// non-test file (`fem.Dot` is short for `fem.Problem.Dot`; for
// pkg.Type.Member, the type is checked). Only an exported Name counts: a
// lowercase one is a metric or a file (`partition.step_ms`, `main.go`).
// internal/net is package net, so this would also check a standard-library
// net identifier; the docs name none.
func TestDocsNameDeclaredAPI(t *testing.T) {
	// package name → its declared names; the module path declares none.
	declared := map[string]map[string]bool{"optipart": {}}
	fset := token.NewFileSet()
	walkGo(t, func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := declared[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			declared[f.Name.Name] = names
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	ref := regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	for _, doc := range docsNamingTests {
		b, err := os.ReadFile(filepath.FromSlash(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans.FindAllString(string(b), -1) {
			for _, m := range ref.FindAllStringSubmatch(span, -1) {
				if names, ok := declared[m[1]]; ok && !names[m[2]] {
					t.Errorf("%s names %s.%s in backticks, but package %s declares no %s", doc, m[1], m[2], m[1], m[2])
				}
			}
		}
	}
}

// docBudgets bounds the bytes of the two documents that describe the
// system as it is.
var docBudgets = map[string]int{"DESIGN.md": 48000, ".claude/skills/verify/SKILL.md": 6000}

// Section citations, matched once whitespace is collapsed so that a citation
// may wrap across lines: one or more quoted names, capitalised as headings
// are, before `section(s) of DESIGN.md` or `in DESIGN.md`, or after
// `DESIGN.md`, `DESIGN.md's` or `DESIGN.md,`.
const quotedNames = `((?:"[A-Z][^"]{0,60}"(?:,| and| or)? ?)+)`

var (
	citeBefore    = regexp.MustCompile(quotedNames + "(?:sections? (?:of|in)|in) `?DESIGN\\.md")
	citeAfter     = regexp.MustCompile("DESIGN\\.md`?(?:'s|,)? " + quotedNames)
	quotedName    = regexp.MustCompile(`"([^"]+)"`)
	prCitation    = regexp.MustCompile(`\bPR[ -]?[0-9]+`)
	designHeading = regexp.MustCompile(`(?m)^#{2,3} (.+)$`)
)

// TestDocsCiteDesignSections keeps DESIGN.md's cross-references and its
// size honest. Every quoted section name that one of docsNamingTests or a
// Go comment cites as a DESIGN.md section (as in `"name" section of
// DESIGN.md`) must start a ## or ### heading, followed by the heading's end
// or a character that is not a letter or digit. DESIGN.md and the skill
// must stay within docBudgets and cite no pull request by number.
func TestDocsCiteDesignSections(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := designHeading.FindAllStringSubmatch(string(design), -1)
	resolves := func(name string) bool {
		for _, h := range headings {
			if rest, ok := strings.CutPrefix(h[1], name); ok && (rest == "" || !unicode.IsLetter(rune(rest[0])) && !unicode.IsDigit(rune(rest[0]))) {
				return true
			}
		}
		return false
	}
	check := func(where, text string) {
		text = strings.Join(strings.Fields(text), " ")
		for _, re := range []*regexp.Regexp{citeBefore, citeAfter} {
			for _, m := range re.FindAllStringSubmatch(text, -1) {
				for _, q := range quotedName.FindAllStringSubmatch(m[1], -1) {
					if !resolves(q[1]) {
						t.Errorf("%s cites DESIGN.md section %q, which no ## or ### heading starts", where, q[1])
					}
				}
			}
		}
	}
	for _, doc := range docsNamingTests {
		b, err := os.ReadFile(filepath.FromSlash(doc))
		if err != nil {
			t.Fatal(err)
		}
		check(doc, string(b))
		budget, ok := docBudgets[doc]
		if !ok {
			continue
		}
		if len(b) > budget {
			t.Errorf("%s is %d bytes, over its budget of %d", doc, len(b), budget)
		}
		for _, pr := range prCitation.FindAllString(string(b), -1) {
			t.Errorf("%s cites %q: describe the system, and leave its history to CHANGES.md and git", doc, pr)
		}
	}
	fset := token.NewFileSet()
	walkGo(t, func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			check(fset.Position(cg.Pos()).String(), cg.Text())
		}
		return nil
	})
}
