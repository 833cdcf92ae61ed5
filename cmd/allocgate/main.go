// Command allocgate enforces the repo's zero-allocation contracts with the
// compiler's own escape analysis. A function whose doc comment carries an
//
//	//alloc:zero <optional prose>
//
// line promises that its body performs no heap allocation. allocgate runs
// `go build -gcflags=-m` over the requested packages, parses the compiler's
// escape diagnostics, and fails if any heap allocation ("escapes to heap",
// "moved to heap") lands inside an annotated function's line range. A known
// cold-path allocation is waived line-by-line with
//
//	//alloc:escape <reason>
//
// either trailing the allocating line or standing alone on the line above
// it; the reason is mandatory. Note that the compiler attributes an inlined
// callee's allocation to the caller's call site, so waivers sit on the call
// line (e.g. canonicalize's a.Keys call), not inside the callee.
//
// The parser fails closed: a -m line whose shape or message family is not
// recognized is an operational error (exit 2), not a silent skip, so a Go
// release that rewords its diagnostics breaks the gate loudly instead of
// quietly passing allocating code.
//
// Usage:
//
//	allocgate [-json] [-v] [packages]          # default ./...
//	allocgate -check report.json               # validate a written report
//
// Exit status: 0 if every contract is clean, 1 if any contract is violated,
// 2 on operational errors (build failure, unparseable -m output, malformed
// annotations, no contracts found, bad -check report).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// contract is one //alloc:zero function and its verdict.
type contract struct {
	Func   string      `json:"func"`
	File   string      `json:"file"` // relative to the working directory
	Start  int         `json:"start"`
	End    int         `json:"end"`
	Note   string      `json:"note,omitempty"`
	Status string      `json:"status"` // "clean" | "dirty"
	Allocs []allocSite `json:"allocs,omitempty"`
	Waived []allocSite `json:"waived,omitempty"`

	absFile string
}

// allocSite is one heap diagnostic attributed to a contract.
type allocSite struct {
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	Reason  string `json:"reason,omitempty"` // waiver reason when waived
}

// waiver is one //alloc:escape line-level exemption.
type waiver struct {
	absFile string
	line    int
	reason  string
	used    bool
}

// report is the -json schema, mirroring cmd/optipartlint's shape.
type report struct {
	Tool       string     `json:"tool"`
	Go         string     `json:"go"`
	Contracts  int        `json:"contracts"`
	Violations int        `json:"violations"`
	Functions  []contract `json:"functions"`
}

// escDiag is one parsed compiler diagnostic from -gcflags=-m stderr.
type escDiag struct {
	File string // as printed (relative to the build's working directory)
	Line int
	Col  int
	Msg  string
	Heap bool
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	verbose := flag.Bool("v", false, "list every contract, not just violations")
	checkPath := flag.String("check", "", "validate a previously written JSON report `file` and exit")
	flag.Parse()

	if *checkPath != "" {
		if err := checkReport(*checkPath); err != nil {
			fmt.Fprintf(os.Stderr, "allocgate: bad report %s: %v\n", *checkPath, err)
			os.Exit(2)
		}
		fmt.Printf("allocgate: report %s ok\n", *checkPath)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	rep, err := run(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocgate: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "allocgate: %v\n", err)
			os.Exit(2)
		}
	} else {
		printHuman(os.Stdout, rep, *verbose)
	}
	if rep.Violations > 0 {
		os.Exit(1)
	}
}

// run executes the whole gate in dir "." for the given package patterns.
func run(patterns []string) (*report, error) {
	return runIn(".", patterns)
}

// runIn is run with an explicit working directory (tests point it at a
// scratch module).
func runIn(dir string, patterns []string) (*report, error) {
	files, err := listGoFiles(dir, patterns)
	if err != nil {
		return nil, err
	}

	var contracts []*contract
	var waivers []*waiver
	fset := token.NewFileSet()
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		cs, ws, err := scanFile(fset, f, src)
		if err != nil {
			return nil, err
		}
		contracts = append(contracts, cs...)
		waivers = append(waivers, ws...)
	}
	if len(contracts) == 0 {
		return nil, fmt.Errorf("no //alloc:zero contracts found in %s — the gate would be vacuous", strings.Join(patterns, " "))
	}

	diags, err := escapeDiags(dir, patterns)
	if err != nil {
		return nil, err
	}

	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	grade(contracts, waivers, diags, absDir)

	for _, w := range waivers {
		if !w.used {
			rel := relTo(absDir, w.absFile)
			fmt.Fprintf(os.Stderr, "allocgate: note: stale waiver at %s:%d (no heap allocation there, or line outside any //alloc:zero function)\n", rel, w.line)
		}
	}

	rep := &report{Tool: "allocgate", Go: runtime.Version(), Contracts: len(contracts)}
	for _, c := range contracts {
		if c.Status == "dirty" {
			rep.Violations++
		}
		rep.Functions = append(rep.Functions, *c)
	}
	slices.SortFunc(rep.Functions, func(a, b contract) int {
		if c := strings.Compare(a.File, b.File); c != 0 {
			return c
		}
		return a.Start - b.Start
	})
	return rep, nil
}

// listGoFiles resolves package patterns to the non-test Go files the build
// would compile.
func listGoFiles(dir string, patterns []string) ([]string, error) {
	args := append([]string{"list", "-f", "{{.Dir}}{{range .GoFiles}}\x1f{{.}}{{end}}"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v%s", strings.Join(patterns, " "), err, exitDetail(err))
	}
	var files []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\x1f")
		pkgDir := parts[0]
		for _, name := range parts[1:] {
			files = append(files, filepath.Join(pkgDir, name))
		}
	}
	return files, nil
}

// scanFile extracts //alloc:zero contracts and //alloc:escape waivers from
// one source file. Malformed annotations (unknown verb, waiver without a
// reason, //alloc:zero outside a function doc comment) are errors.
func scanFile(fset *token.FileSet, path string, src []byte) ([]*contract, []*waiver, error) {
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, nil, err
	}
	lines := strings.Split(string(src), "\n")

	// Comment groups serving as FuncDecl docs, so stray //alloc:zero
	// comments anywhere else can be rejected.
	docOf := map[*ast.CommentGroup]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
			docOf[fd.Doc] = fd
		}
	}

	var contracts []*contract
	var waivers []*waiver
	for _, g := range f.Comments {
		fd := docOf[g]
		for _, c := range g.List {
			text := c.Text
			if !strings.HasPrefix(text, "//alloc:") {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(text, "//alloc:")
			switch {
			case rest == "zero" || strings.HasPrefix(rest, "zero "):
				if fd == nil {
					return nil, nil, fmt.Errorf("%s:%d: //alloc:zero must be in a function's doc comment", path, pos.Line)
				}
				contracts = append(contracts, &contract{
					Func:    funcDisplayName(fd),
					File:    path,
					Start:   fset.Position(fd.Pos()).Line,
					End:     fset.Position(fd.End()).Line,
					Note:    strings.TrimSpace(strings.TrimPrefix(rest, "zero")),
					Status:  "clean",
					absFile: abs,
				})
			case strings.HasPrefix(rest, "escape"):
				reason := strings.TrimSpace(strings.TrimPrefix(rest, "escape"))
				if reason == "" {
					return nil, nil, fmt.Errorf("%s:%d: //alloc:escape needs a reason", path, pos.Line)
				}
				target := pos.Line
				if pos.Line-1 < len(lines) {
					prefix := lines[pos.Line-1]
					if pos.Column-1 <= len(prefix) && strings.TrimSpace(prefix[:pos.Column-1]) == "" {
						target = pos.Line + 1 // standalone comment waives the next line
					}
				}
				waivers = append(waivers, &waiver{absFile: abs, line: target, reason: reason})
			default:
				return nil, nil, fmt.Errorf("%s:%d: unknown annotation %q (want //alloc:zero or //alloc:escape <reason>)", path, pos.Line, text)
			}
		}
	}
	return contracts, waivers, nil
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	writeRecvType(&b, fd.Recv.List[0].Type)
	return "(" + b.String() + ")." + fd.Name.Name
}

func writeRecvType(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.StarExpr:
		b.WriteByte('*')
		writeRecvType(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr:
		writeRecvType(b, t.X)
	case *ast.IndexListExpr:
		writeRecvType(b, t.X)
	default:
		b.WriteString("?")
	}
}

// escapeDiags builds the patterns with -gcflags=-m and parses the stderr.
func escapeDiags(dir string, patterns []string) ([]escDiag, error) {
	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	runErr := cmd.Run()
	if runErr != nil {
		return nil, fmt.Errorf("go build -gcflags=-m failed: %v\n%s", runErr, tail(stderr.String(), 20))
	}
	return parseEscape(strings.NewReader(stderr.String()))
}

// parseEscape reads -gcflags=-m stderr, fail-closed: every line must be a
// package header, an <autogenerated> diagnostic, an indented continuation
// of the previous diagnostic, or a file:line:col diagnostic whose message
// belongs to a known family. Anything else is a drift error.
func parseEscape(r io.Reader) ([]escDiag, error) {
	var diags []escDiag
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawDiag := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.TrimSpace(line) == "":
			continue
		case strings.HasPrefix(line, "# "):
			continue // package header
		case strings.HasPrefix(line, "<autogenerated>"):
			continue // compiler-synthesized wrappers have no source line
		case line[0] == ' ' || line[0] == '\t':
			// Multi-line diagnostic (e.g. -m=2 inlining cost detail)
			// continuing the previous one.
			if !sawDiag {
				return nil, fmt.Errorf("unrecognized -m output (continuation with no preceding diagnostic): %q", line)
			}
			continue
		}
		file, rest, ok := splitDiagPos(line)
		if !ok {
			return nil, fmt.Errorf("unrecognized -m output line %q: go %s may have changed its diagnostic format; update allocgate's parser", line, runtime.Version())
		}
		sawDiag = true
		if filepath.IsAbs(file) {
			continue // stdlib / toolchain file, not ours
		}
		ln, col, msg, err := splitLineCol(rest)
		if err != nil {
			return nil, fmt.Errorf("unrecognized -m position in %q: %v", line, err)
		}
		heap, err := classify(msg)
		if err != nil {
			return nil, fmt.Errorf("%s: %v; go %s may have changed its diagnostic vocabulary; update allocgate's parser", line, err, runtime.Version())
		}
		diags = append(diags, escDiag{File: file, Line: ln, Col: col, Msg: msg, Heap: heap})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return diags, nil
}

// splitDiagPos splits "path.go:L:C: msg" into the path and the remainder
// "L:C: msg". The path may itself contain colons only on Windows, which
// this repo does not target.
func splitDiagPos(line string) (file, rest string, ok bool) {
	i := strings.Index(line, ".go:")
	if i < 0 {
		return "", "", false
	}
	return line[:i+3], line[i+4:], true
}

func splitLineCol(rest string) (line, col int, msg string, err error) {
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return 0, 0, "", fmt.Errorf("want line:col: prefix, got %q", rest)
	}
	line, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, "", err
	}
	col, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, "", err
	}
	return line, col, strings.TrimPrefix(parts[2], " "), nil
}

// classify sorts a diagnostic message into heap (true), benign (false), or
// unknown (error). The vocabulary is deliberately a closed set: an
// unrecognized family means the toolchain drifted and the gate must not
// guess which side it falls on.
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

// grade attributes heap diagnostics to contracts, applying waivers.
func grade(contracts []*contract, waivers []*waiver, diags []escDiag, absDir string) {
	waiverAt := map[string]*waiver{}
	for _, w := range waivers {
		waiverAt[w.absFile+":"+strconv.Itoa(w.line)] = w
	}
	byFile := map[string][]escDiag{}
	for _, d := range diags {
		if !d.Heap {
			continue
		}
		abs := d.File
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(absDir, d.File)
		}
		byFile[abs] = append(byFile[abs], d)
	}
	for _, c := range contracts {
		c.File = relTo(absDir, c.absFile)
		for _, d := range byFile[c.absFile] {
			if d.Line < c.Start || d.Line > c.End {
				continue
			}
			site := allocSite{Line: d.Line, Col: d.Col, Message: d.Msg}
			if w, ok := waiverAt[c.absFile+":"+strconv.Itoa(d.Line)]; ok {
				w.used = true
				site.Reason = w.reason
				c.Waived = append(c.Waived, site)
				continue
			}
			c.Status = "dirty"
			c.Allocs = append(c.Allocs, site)
		}
	}
}

func relTo(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

func printHuman(w io.Writer, rep *report, verbose bool) {
	for _, c := range rep.Functions {
		if c.Status == "dirty" {
			for _, a := range c.Allocs {
				fmt.Fprintf(w, "%s:%d:%d: %s allocates inside //alloc:zero contract: %s\n", c.File, a.Line, a.Col, c.Func, a.Message)
			}
		} else if verbose {
			extra := ""
			if n := len(c.Waived); n > 0 {
				extra = fmt.Sprintf(" (%d waived)", n)
			}
			fmt.Fprintf(w, "%s:%d: %s clean%s\n", c.File, c.Start, c.Func, extra)
		}
	}
	fmt.Fprintf(w, "allocgate: %d contracts, %d violations (%s)\n", rep.Contracts, rep.Violations, rep.Go)
}

// checkReport validates a report written by -json, the same pattern the CI
// script uses for optipartlint output.
func checkReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return err
	}
	if rep.Tool != "allocgate" {
		return fmt.Errorf("tool = %q, want %q", rep.Tool, "allocgate")
	}
	if rep.Go == "" {
		return fmt.Errorf("missing go version")
	}
	if rep.Contracts != len(rep.Functions) {
		return fmt.Errorf("contracts = %d but %d functions listed", rep.Contracts, len(rep.Functions))
	}
	if rep.Contracts == 0 {
		return fmt.Errorf("no contracts — the gate did not check anything")
	}
	dirty := 0
	for i, c := range rep.Functions {
		if c.Func == "" || c.File == "" {
			return fmt.Errorf("functions[%d]: missing func or file", i)
		}
		if c.Start < 1 || c.End < c.Start {
			return fmt.Errorf("functions[%d] (%s): bad line range %d-%d", i, c.Func, c.Start, c.End)
		}
		switch c.Status {
		case "clean":
			if len(c.Allocs) != 0 {
				return fmt.Errorf("functions[%d] (%s): clean but has %d allocs", i, c.Func, len(c.Allocs))
			}
		case "dirty":
			dirty++
			if len(c.Allocs) == 0 {
				return fmt.Errorf("functions[%d] (%s): dirty but no allocs listed", i, c.Func)
			}
		default:
			return fmt.Errorf("functions[%d] (%s): status = %q", i, c.Func, c.Status)
		}
	}
	if dirty != rep.Violations {
		return fmt.Errorf("violations = %d but %d dirty functions", rep.Violations, dirty)
	}
	return nil
}

func exitDetail(err error) string {
	if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
		return "\n" + tail(string(ee.Stderr), 10)
	}
	return ""
}

func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
