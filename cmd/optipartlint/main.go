// Command optipartlint is the repo's one static gate: a stdlib-only vet
// tool (go/parser + go/types, no x/tools) enforcing the invariants the
// runtime can only catch after the fact —
//
//	nondeterminism   wall clocks, global rand, map-order output, goroutines
//	apihygiene       reflection sorts, looped NewCurve, non-error panics
//	alloczero        heap allocations inside //alloc:zero functions
//
// Usage:
//
//	optipartlint [packages...]        lint (./... or directories; default ./...)
//	optipartlint -listignores [pkgs]  audit every active //lint:ignore
//
// Diagnostics are suppressed line-by-line with an audited directive:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; -listignores prints the full audit trail, and a
// directive that silences nothing is noted on stderr. A whole-module run
// that finds no //alloc:zero contract fails.
// Exit status: 0 clean, 1 diagnostics found, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"optipart/internal/lint"
)

func main() {
	listIgnores := flag.Bool("listignores", false, "print every active //lint:ignore suppression and exit")
	flag.Parse()

	result, err := run(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "optipartlint: %v\n", err)
		os.Exit(2)
	}
	for _, s := range result.Stale {
		fmt.Fprintf(os.Stderr, "optipartlint: note: stale suppression at %s:%d: no %s finding on line %d\n", s.File, s.Line, s.Rule, s.Target)
	}

	if *listIgnores {
		for _, s := range result.Suppressions {
			fmt.Println(s)
		}
		fmt.Printf("%d active suppression(s)\n", len(result.Suppressions))
	} else {
		for _, d := range result.Diagnostics {
			fmt.Println(d)
		}
	}
	if len(result.Diagnostics) > 0 {
		if !*listIgnores {
			fmt.Fprintf(os.Stderr, "optipartlint: %d issue(s)\n", len(result.Diagnostics))
		}
		os.Exit(1)
	}
}

// run lints the requested patterns: "./..." (or nothing) means the whole
// module; anything else is a package directory. Every file name in the
// result is relative to the working directory, however the package was
// named or reached.
func run(patterns []string) (lint.Result, error) {
	var result lint.Result
	cwd, err := os.Getwd()
	if err != nil {
		return result, err
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return result, err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return result, err
	}

	wholeModule := len(patterns) == 0
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			wholeModule = true
		}
	}
	if wholeModule {
		result, err = loader.CheckModule()
		relativize(&result, cwd)
		return result, err
	}
	for _, pat := range patterns {
		// The loader names files by the directory it is given, so a named
		// directory goes in absolute, as the directories of the packages
		// it loads as dependencies do.
		dir, err := filepath.Abs(pat)
		if err != nil {
			return result, err
		}
		path, err := loader.ImportPathFor(dir)
		if err != nil {
			return result, err
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			return result, err
		}
		result.Merge(lint.RunPackage(pkg))
	}
	relativize(&result, cwd)
	return result, nil
}

// relativize rewrites every file name in res relative to dir.
func relativize(res *lint.Result, dir string) {
	rel := func(file *string) {
		if r, err := filepath.Rel(dir, *file); err == nil {
			*file = r
		}
	}
	for i := range res.Diagnostics {
		rel(&res.Diagnostics[i].File)
	}
	for i := range res.Suppressions {
		rel(&res.Suppressions[i].File)
	}
	for i := range res.Stale {
		rel(&res.Stale[i].File)
	}
}
