package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFindingPathsAgree: a whole-module run and a run on one package's
// directory print the same finding under the same file name, relative to
// the working directory. The loader names a file by the directory it was
// reached through, which is absolute for the module walk and as typed for a
// named directory, so without run's rewrite the two runs disagreed.
func TestFindingPathsAgree(t *testing.T) {
	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"internal/p/p.go": `package p

import "sort"

// Sort sorts xs through the reflection-era entry point.
func Sort(xs []int) { sort.Ints(xs) }

// One is the module's allocation contract.
//
//alloc:zero
func One() int { return 1 }
`,
	} {
		path := filepath.Join(mod, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(mod); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	want := filepath.Join("internal", "p", "p.go")
	var first string
	for _, args := range [][]string{{"./..."}, {"./internal/p"}, {filepath.Join(mod, "internal", "p")}} {
		res, err := run(args)
		if err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		if len(res.Diagnostics) != 1 || res.Diagnostics[0].File != want {
			t.Fatalf("run %v: diagnostics %v, want one in %s", args, res.Diagnostics, want)
		}
		got := res.Diagnostics[0].String()
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("run %v printed %q, run ./... printed %q", args, got, first)
		}
	}
}
