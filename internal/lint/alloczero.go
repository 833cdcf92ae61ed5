package lint

// alloczero.go checks the zero-allocation contracts with the compiler's own
// escape analysis. A function whose doc comment holds the line
//
//	//alloc:zero <optional prose>
//
// promises that its body performs no heap allocation. The rule reads
// `go build -gcflags=-m` (one build per module run, cached on the Loader)
// and reports every heap site ("escapes to heap", "moved to heap") inside
// a contract's lines. A known cold-path allocation is waived like any other
// finding, by a reasoned `//lint:ignore alloczero <reason>` on its line or
// on the line above. The compiler charges an inlined callee's allocation to
// the caller's call site, so the waiver sits on the call line.
//
// The -m parser fails closed: a line whose shape or message family it does
// not know is a finding, so a Go release that rewords its diagnostics stops
// the gate instead of quietly passing allocating code.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// AllocZero is the rule behind //alloc:zero.
var AllocZero = &Analyzer{
	Name: "alloczero",
	Doc:  "heap allocations inside //alloc:zero functions, by the compiler's escape analysis",
	Run:  runAllocZero,
}

// escDiag is one parsed -gcflags=-m diagnostic.
type escDiag struct {
	File string // as printed: relative to the module root
	Line int
	Col  int
	Msg  string
	Heap bool
}

// escapeBuild is one cached -m build: its diagnostics or its failure.
type escapeBuild struct {
	diags []escDiag
	err   error
}

func runAllocZero(p *Pass) {
	var contracts []*ast.FuncDecl
	for _, f := range p.Files {
		docOf := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				docOf[fd.Doc] = fd
			}
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				verb, ok := strings.CutPrefix(c.Text, "//alloc:")
				switch {
				case !ok:
				case verb != "zero" && !strings.HasPrefix(verb, "zero "):
					p.Report(c.Pos(), "unknown annotation %q: the one verb is //alloc:zero, and a site is waived with //lint:ignore alloczero <reason>", c.Text)
				case docOf[g] == nil:
					p.Report(c.Pos(), "//alloc:zero must be in a function's doc comment")
				default:
					contracts = append(contracts, docOf[g])
				}
			}
		}
	}
	if len(contracts) == 0 {
		return
	}
	*p.contracts += len(contracts)
	diags, err := p.pkg.loader.escapes(p.pkg.Dir)
	if err != nil {
		p.Report(contracts[0].Pos(), "cannot check //alloc:zero contracts: %v", err)
		return
	}
	for _, fd := range contracts {
		tf := p.Fset.File(fd.Pos())
		abs, err := filepath.Abs(tf.Name())
		if err != nil {
			p.Report(fd.Pos(), "cannot check //alloc:zero contract: %v", err)
			continue
		}
		for _, d := range diags {
			if d.Heap && d.Line >= tf.Line(fd.Pos()) && d.Line <= tf.Line(fd.End()) &&
				filepath.Join(p.pkg.loader.ModRoot, d.File) == abs {
				p.Report(tf.LineStart(d.Line)+token.Pos(d.Col-1),
					"%s allocates inside its //alloc:zero contract: %s", fd.Name.Name, d.Msg)
			}
		}
	}
}

// escapes returns the -m diagnostics covering the package in dir. Every
// package of the module shares one `go build -gcflags=-m ./...`; a
// directory that ./... does not reach (a fixture under testdata) is built
// on its own.
func (l *Loader) escapes(dir string) ([]escDiag, error) {
	pattern, _ := filepath.Abs(dir)
	rel, err := filepath.Rel(l.ModRoot, pattern)
	if err == nil && !strings.HasPrefix(rel, "..") &&
		!slices.Contains(strings.Split(filepath.ToSlash(rel), "/"), "testdata") {
		pattern = "./..."
	}
	if b, ok := l.builds[pattern]; ok {
		return b.diags, b.err
	}
	cmd := exec.Command("go", "build", "-gcflags=-m", pattern)
	cmd.Dir = l.ModRoot
	out, err := cmd.CombinedOutput()
	var b escapeBuild
	if err != nil {
		b.err = fmt.Errorf("go build -gcflags=-m %s: %v\n%s", pattern, err, out[max(0, len(out)-4096):])
	} else {
		b.diags, b.err = parseEscape(bytes.NewReader(out))
	}
	l.builds[pattern] = b
	return b.diags, b.err
}

// parseEscape reads -gcflags=-m output, failing closed: every line must be
// a package header, an <autogenerated> diagnostic, an indented continuation
// of the previous diagnostic, or a file:line:col diagnostic whose message
// belongs to a known family. Anything else is toolchain drift.
func parseEscape(r io.Reader) ([]escDiag, error) {
	var diags []escDiag
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawDiag := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.TrimSpace(line) == "",
			strings.HasPrefix(line, "# "),              // package header
			strings.HasPrefix(line, "<autogenerated>"): // synthesized wrappers have no source line
			continue
		case line[0] == ' ' || line[0] == '\t':
			// A multi-line diagnostic continuing the previous one.
			if !sawDiag {
				return nil, fmt.Errorf("unrecognized -m output (continuation with no preceding diagnostic): %q", line)
			}
			continue
		}
		i := strings.Index(line, ".go:")
		if i < 0 {
			return nil, fmt.Errorf("unrecognized -m output line %q: go %s may have changed its diagnostic format", line, runtime.Version())
		}
		sawDiag = true
		file, rest := line[:i+3], line[i+4:]
		if filepath.IsAbs(file) {
			continue // a toolchain file, not the module's
		}
		var ln, col int
		pos, msg, ok := strings.Cut(rest, ": ")
		if _, err := fmt.Sscanf(pos, "%d:%d", &ln, &col); !ok || err != nil {
			return nil, fmt.Errorf("unrecognized -m position in %q", line)
		}
		heap, err := classify(msg)
		if err != nil {
			return nil, fmt.Errorf("%s: %v; go %s may have changed its diagnostic vocabulary", line, err, runtime.Version())
		}
		diags = append(diags, escDiag{File: file, Line: ln, Col: col, Msg: msg, Heap: heap})
	}
	return diags, sc.Err()
}

// classify sorts a message into heap (true), benign (false), or unknown
// (an error). The vocabulary is a closed set: for a family it does not
// know, the rule must not guess which side it falls on.
func classify(msg string) (heap bool, err error) {
	switch {
	case strings.Contains(msg, "escapes to heap"),
		strings.HasPrefix(msg, "moved to heap"):
		return true, nil
	case strings.Contains(msg, "does not escape"),
		strings.HasPrefix(msg, "leaking param"),
		strings.HasPrefix(msg, "inlining call to"),
		strings.HasPrefix(msg, "can inline"),
		strings.HasPrefix(msg, "cannot inline"),
		strings.HasPrefix(msg, "index bounds check elided"),
		strings.HasPrefix(msg, "zero-copy string->[]byte conversion"),
		strings.HasPrefix(msg, "zero-copy []byte->string conversion"),
		strings.Contains(msg, "ignoring self-assignment"):
		return false, nil
	}
	return false, fmt.Errorf("unknown diagnostic family %q", msg)
}
