// Command optipartlint is the repo's domain-aware static analyzer: a
// stdlib-only vet tool (go/parser + go/types, no x/tools) enforcing the
// invariants the runtime can only catch after the fact —
//
//	collectivediverge  rank-conditional collectives (SPMD deadlock hazards)
//	nondeterminism     wall clocks, global rand, map-order output, goroutines
//	costaccounting     byte movement that bypasses comm.Stats
//	apihygiene         reflection sorts, looped NewCurve, non-error panics
//	lockorder          package-spanning lock-acquisition cycles (deadlocks)
//	condwait           sync.Cond.Wait outside the canonical predicate loop
//	goroutineleak      library goroutines with no reachable stop or join
//	unboundedgrowth    long-lived fields that only ever grow
//
// Usage:
//
//	optipartlint [packages...]        lint (./... or directories; default ./...)
//	optipartlint -json [packages...]  machine-readable diagnostics on stdout
//	optipartlint -listignores [pkgs]  audit every active //lint:ignore
//	optipartlint -check report.json   validate a -json report (the CI guard)
//
// Diagnostics are suppressed line-by-line with an audited directive:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; -listignores prints the full audit trail.
// Exit status: 0 clean, 1 diagnostics found, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"optipart/internal/lint"
)

// report is the -json schema, mirrored by -check (the jq-free CI guard).
type report struct {
	Tool         string             `json:"tool"`
	Count        int                `json:"count"`
	Diagnostics  []lint.Diagnostic  `json:"diagnostics"`
	Suppressions []lint.Suppression `json:"suppressions"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	listIgnores := flag.Bool("listignores", false, "print every active //lint:ignore suppression and exit")
	check := flag.String("check", "", "validate a previously written -json report instead of linting")
	flag.Parse()

	if *check != "" {
		if err := checkReport(*check); err != nil {
			fmt.Fprintf(os.Stderr, "optipartlint: %v\n", err)
			os.Exit(2)
		}
		return
	}

	result, err := run(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "optipartlint: %v\n", err)
		os.Exit(2)
	}

	switch {
	case *listIgnores:
		for _, s := range result.Suppressions {
			fmt.Println(s)
		}
		fmt.Printf("%d active suppression(s)\n", len(result.Suppressions))
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		r := report{Tool: "optipartlint", Count: len(result.Diagnostics), Diagnostics: result.Diagnostics, Suppressions: result.Suppressions}
		if r.Diagnostics == nil {
			r.Diagnostics = []lint.Diagnostic{}
		}
		if r.Suppressions == nil {
			r.Suppressions = []lint.Suppression{}
		}
		if err := enc.Encode(r); err != nil {
			fmt.Fprintf(os.Stderr, "optipartlint: %v\n", err)
			os.Exit(2)
		}
	default:
		for _, d := range result.Diagnostics {
			fmt.Println(d)
		}
	}
	if len(result.Diagnostics) > 0 {
		if !*jsonOut && !*listIgnores {
			fmt.Fprintf(os.Stderr, "optipartlint: %d issue(s)\n", len(result.Diagnostics))
		}
		os.Exit(1)
	}
}

// run lints the requested patterns: "./..." (or nothing) means the whole
// module; anything else is a package directory.
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

	var pkgs []*lint.Package
	wholeModule := len(patterns) == 0
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			wholeModule = true
		}
	}
	if wholeModule {
		pkgs, err = loader.LoadModule()
		if err != nil {
			return result, err
		}
	} else {
		for _, pat := range patterns {
			path, err := loader.ImportPathFor(pat)
			if err != nil {
				return result, err
			}
			pkg, err := loader.LoadDir(pat, path)
			if err != nil {
				return result, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	for _, pkg := range pkgs {
		result.Merge(lint.RunPackage(pkg))
	}
	return result, nil
}

// checkReport is the CI parse guard: it fails on a malformed or
// wrongly-attributed report so a lint refresh that wrote garbage is caught
// at the gate without jq.
func checkReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("%s: not valid optipartlint JSON: %w", path, err)
	}
	if r.Tool != "optipartlint" {
		return fmt.Errorf("%s: tool field %q, want %q", path, r.Tool, "optipartlint")
	}
	if r.Diagnostics == nil {
		return fmt.Errorf("%s: missing diagnostics array", path)
	}
	if r.Count != len(r.Diagnostics) {
		return fmt.Errorf("%s: count %d does not match %d diagnostics", path, r.Count, len(r.Diagnostics))
	}
	for i, d := range r.Diagnostics {
		if d.File == "" || d.Line <= 0 || d.Rule == "" || d.Message == "" {
			return fmt.Errorf("%s: diagnostic %d is incomplete: %+v", path, i, d)
		}
	}
	fmt.Printf("%s: ok (%d diagnostics, %d suppressions)\n", path, r.Count, len(r.Suppressions))
	return nil
}
