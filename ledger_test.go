package optipart_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLedgerInventory keeps DESIGN.md's rent ledger and the tree in step:
// every directory under internal/, cmd/ and examples/ has a row, and every
// row's path exists.
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
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(table, -1) {
		rows[m[1]] = true
		if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
			t.Errorf("ledger row `%s` names a path that does not exist", m[1])
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
