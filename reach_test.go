package optipart_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"optipart/internal/lint"
)

// reachKeep is the allow-list of TestInternalReachability: functions, types
// and methods under internal/ that no command, example or initializer
// reaches, kept on purpose. Every entry is a row of the reachKeep table in
// DESIGN.md's "Rent ledger" (TestKeepListsHaveDesignRows) and carries that
// row's reason. A method is keyed as "pkg.Type.Method".
var reachKeep = map[string]string{
	"internal/octree.SurfaceArea": "ROADMAP item 7's surface-to-volume oracle (arXiv:2106.12856) measures with it; a reference tests compare against",
}

// knobKeep is the allow-list of TestKnobCensus: option fields that no
// non-test code outside their own package sets, kept on purpose. Each
// reason names the caller or test that needs a second value. A field is
// keyed as "pkg.Struct.Field".
var knobKeep = map[string]string{
	"internal/comm.AlltoallvOptions.StageWidth": "the §3.1 ablation: TestStagedCostLowerThanBurstMax and comm's width sweeps run widths 1..p-1",
	"internal/partition.Options.MaxSplitters":   "the paper's k ≤ p (§3.1): TestMaxSplittersStagingChangesNothing stages at k = 2",
	"internal/net.Options.HeartbeatInterval":    "net's failure-detection tests ping every 5-20 ms so a death is declared in well under a second",
	"internal/net.Options.OnDeath":              "TestRestoreRejoinCompletesCampaign and BenchmarkRecoveryRestore respawn in-process workers through it, standing in for the supervisor",
	"internal/net.CalibrateOptions.Rounds":      "TestCalibrateProducesUsableModel shrinks the probe so the unit test stays fast",
	"internal/net.CalibrateOptions.LargeBytes":  "TestCalibrateProducesUsableModel shrinks the probe so the unit test stays fast",
	"internal/net.CalibrateOptions.SweepBytes":  "TestCalibrateProducesUsableModel shrinks the probe so the unit test stays fast",
}

// The allow-lists are bounded so that keeping something stays the exception.
const (
	maxReachKeep = 16
	maxKnobKeep  = 14
)

// TestKeepListsHaveDesignRows keeps reachKeep and knobKeep one to one with
// their DESIGN.md tables: each row's first backticked name is a key without
// its internal/ prefix, and each key has exactly one row.
func TestKeepListsHaveDesignRows(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	firstName := regexp.MustCompile("^\\| `([^`]+)`")
	for _, list := range []struct {
		heading string
		keep    map[string]string
	}{
		{"**Kept without a production caller**", reachKeep},
		{"**Kept knobs**", knobKeep},
	} {
		_, after, ok := strings.Cut(string(design), "\n"+list.heading)
		if !ok {
			t.Errorf("DESIGN.md has no %s table", list.heading)
			continue
		}
		// The table is the first run of lines that start with "|".
		rows := map[string]int{}
		inTable := false
		for _, line := range strings.Split(after, "\n") {
			if !strings.HasPrefix(line, "|") {
				if inTable {
					break
				}
				continue
			}
			inTable = true
			if m := firstName.FindStringSubmatch(line); m != nil {
				rows[m[1]]++
			}
		}
		for name, n := range rows {
			if _, ok := list.keep["internal/"+name]; !ok {
				t.Errorf("DESIGN.md's %s table has a row for %s, which is no key of its allow-list", list.heading, name)
			} else if n != 1 {
				t.Errorf("DESIGN.md's %s table has %d rows for %s, want 1", list.heading, n, name)
			}
		}
		for key := range list.keep {
			if rows[strings.TrimPrefix(key, "internal/")] == 0 {
				t.Errorf("%s has no row in DESIGN.md's %s table", key, list.heading)
			}
		}
	}
}

// loadedModule is the type-checked, non-test view of the whole module.
type loadedModule struct {
	loader *lint.Loader
	pkgs   []*lint.Package
}

// loadModule loads the module once for both gates.
var loadModule = sync.OnceValues(func() (loadedModule, error) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return loadedModule{}, err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return loadedModule{}, err
	}
	pkgs, err := loader.LoadModule()
	return loadedModule{loader, pkgs}, err
})

// TestInternalReachability is the gate under DESIGN.md's rent ledger: every
// package-level func and type, and every method, declared in a non-test file
// under internal/ must be reachable from a root, or be listed in reachKeep
// with its reason. Roots are every main and init and every package-level
// var. An edge is any use of a package-level object or a method inside a
// declaration. A method is reached when a reached declaration selects it (x.M or T.M), or when its
// receiver type is reached and its name is a method of an interface type
// declared in the module, of error, or of an interface type declared by a
// standard-library package the module imports (interfaceMethodNames):
// dynamic dispatch may call it. The sweep is conservative: it never calls
// live code dead.
func TestInternalReachability(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	loader, pkgs := mod.loader, mod.pkgs
	internal := loader.ModPath + "/internal/"

	dispatched := interfaceMethodNames(pkgs, loader.ModPath)

	// refs[o] lists the package-level objects and methods of this module
	// that o's declaration uses. A type also refers to its methods that
	// dynamic dispatch may reach.
	refs := map[types.Object][]types.Object{}
	var roots []types.Object
	for _, pkg := range pkgs {
		collect := func(owner types.Object, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := moduleObject(pkg.Info.Uses[id], loader.ModPath); o != nil {
						refs[owner] = append(refs[owner], o)
					}
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					owner := pkg.Info.Defs[d.Name]
					switch {
					case d.Recv != nil:
						if dispatched[d.Name.Name] {
							recv := receiverType(pkg.Info, d.Recv.List[0].Type)
							refs[recv] = append(refs[recv], owner)
						}
					case d.Name.Name == "init", d.Name.Name == "main" && pkg.Types.Name() == "main":
						roots = append(roots, owner)
					}
					collect(owner, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							collect(pkg.Info.Defs[spec.Name], spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								o := pkg.Info.Defs[name]
								collect(o, spec)
								if d.Tok == token.VAR {
									roots = append(roots, o)
								}
							}
						}
					}
				}
			}
		}
	}

	reach := func(roots []types.Object) map[types.Object]bool {
		live := map[types.Object]bool{}
		work := slices.Clone(roots)
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			if !live[o] {
				live[o] = true
				work = append(work, refs[o]...)
			}
		}
		return live
	}

	// An allow-list entry must name a member that exists and that nothing
	// else reaches; otherwise the entry is stale.
	live := reach(roots)
	checkAllowList(t, "reachKeep", reachKeep, maxReachKeep, func(key string) string {
		o := lookupMember(pkgs, loader.ModPath, key)
		switch {
		case o == nil:
			return "no such name"
		case live[o]:
			return "now has a caller"
		}
		roots = append(roots, o)
		return ""
	})
	live = reach(roots)

	var dead []string
	report := func(pkg *lint.Package, o types.Object, name string) {
		pos := loader.Fset.Position(o.Pos())
		rel, _ := filepath.Rel(loader.ModRoot, pos.Filename)
		dead = append(dead, rel+": "+strings.TrimPrefix(pkg.Path, loader.ModPath+"/")+"."+name)
	}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, internal) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			switch o.(type) {
			case *types.Func, *types.TypeName:
				if !live[o] {
					report(pkg, o, name)
					continue
				}
			}
			// Methods of a dead type are reported with the type.
			if named, ok := o.Type().(*types.Named); ok && named.Obj() == o && !types.IsInterface(named) {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !live[m] {
						report(pkg, m, name+"."+m.Name())
					}
				}
			}
		}
	}
	for _, d := range dead {
		t.Errorf("no caller outside its own tests: %s", d)
	}
	if len(dead) > 0 {
		t.Log("give it a caller, delete it with the tests of the behaviour that leaves, move it into a _test.go file when only tests observe through it, or add it to reachKeep with the ledger's reason")
	}
}

// TestKnobCensus is the rent ledger's gate on options: every exported field
// of an exported struct under internal/ whose name ends in Options, Config
// or Flags must be set, by a keyed literal, an assignment or an address
// taken (flag.IntVar(&o.F, ...)), in a non-test file outside its own
// package. A field only its own package or its tests set has one value in
// use and is a constant in disguise; it is retired, or listed in knobKeep
// with the caller or test that needs a second value.
func TestKnobCensus(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	loader, pkgs := mod.loader, mod.pkgs
	internal := loader.ModPath + "/internal/"

	set := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		field := func(id *ast.Ident) {
			if v, ok := pkg.Info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != nil && v.Pkg() != pkg.Types {
				set[v.Origin()] = true
			}
		}
		selected := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				field(sel.Sel)
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						field(id)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selected(lhs)
					}
				case *ast.IncDecStmt:
					selected(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						selected(n.X)
					}
				}
				return true
			})
		}
	}

	knobs := map[string]bool{}
	var unset []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, internal) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			st, ok := o.Type().Underlying().(*types.Struct)
			if !ok || !o.Exported() || !isKnobStruct(name) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() {
					continue
				}
				key := strings.TrimPrefix(pkg.Path, loader.ModPath+"/") + "." + name + "." + v.Name()
				knobs[key] = set[v]
				if !set[v] && knobKeep[key] == "" {
					pos := loader.Fset.Position(v.Pos())
					rel, _ := filepath.Rel(loader.ModRoot, pos.Filename)
					unset = append(unset, rel+": "+key)
				}
			}
		}
	}
	checkAllowList(t, "knobKeep", knobKeep, maxKnobKeep, func(key string) string {
		isSet, ok := knobs[key]
		switch {
		case !ok:
			return "no such field"
		case isSet:
			return "now has a setter"
		}
		return ""
	})
	for _, u := range unset {
		t.Errorf("option field set by no caller outside its package: %s", u)
	}
	if len(unset) > 0 {
		t.Log("give it a caller that needs a second value, make it the constant every caller already gets, or add it to knobKeep with the caller or test that varies it")
	}
}

// checkAllowList fails on an allow-list over its bound, on an entry with no
// reason, and on an entry for which stale reports a problem.
func checkAllowList(t *testing.T, name string, list map[string]string, bound int, stale func(key string) string) {
	t.Helper()
	if len(list) > bound {
		t.Errorf("%s has %d entries, more than its bound of %d", name, len(list), bound)
	}
	keys := make([]string, 0, len(list))
	for k := range list {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range keys {
		if list[key] == "" {
			t.Errorf("%s[%q] has no reason", name, key)
		}
		if problem := stale(key); problem != "" {
			t.Errorf("%s[%q] %s; delete the entry", name, key, problem)
		}
	}
}

// isKnobStruct reports whether a struct name marks a bag of settings.
func isKnobStruct(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Flags")
}

// moduleObject maps a use to the node it stands for: a package-level object
// or a concrete method declared in this module, or nil.
func moduleObject(o types.Object, modPath string) types.Object {
	if o == nil || o.Pkg() == nil || !strings.HasPrefix(o.Pkg().Path(), modPath) {
		return nil
	}
	if fn, ok := o.(*types.Func); ok {
		o = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				return nil
			}
			return o
		}
	}
	if o.Parent() != o.Pkg().Scope() {
		return nil
	}
	return o
}

// interfaceMethodNames collects the method names dynamic dispatch may call:
// those of error (with the Unwrap that errors.Is and errors.As call through
// an unexported interface), of every interface type written in the module,
// and of every exported interface type of a standard-library package the
// module imports.
func interfaceMethodNames(pkgs []*lint.Package, modPath string) map[string]bool {
	names := map[string]bool{"Error": true, "Unwrap": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					add(pkg.Info.Types[it].Type)
				}
				return true
			})
		}
		for _, imp := range pkg.Types.Imports() {
			if strings.HasPrefix(imp.Path(), modPath) {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if o, ok := scope.Lookup(name).(*types.TypeName); ok && o.Exported() {
					add(o.Type())
				}
			}
		}
	}
	return names
}

// lookupMember resolves an allow-list key, "pkg.Name" or "pkg.Type.Method",
// to its object.
func lookupMember(pkgs []*lint.Package, modPath, key string) types.Object {
	var pkg *lint.Package
	var rest string
	for _, p := range pkgs {
		if r, ok := strings.CutPrefix(key, strings.TrimPrefix(p.Path, modPath+"/")+"."); ok && !strings.Contains(r, "/") {
			pkg, rest = p, r
		}
	}
	if pkg == nil {
		return nil
	}
	name, method, isMethod := strings.Cut(rest, ".")
	o := pkg.Types.Scope().Lookup(name)
	if o == nil || !isMethod {
		return o
	}
	if named, ok := o.Type().(*types.Named); ok {
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				return m
			}
		}
	}
	return nil
}

// receiverType resolves a method's receiver expression (T, *T, T[P]) to
// the named type's object.
func receiverType(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}
