package optipart_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
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
