package optipart_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"optipart/internal/lint"
)

// reachKeep is the allow-list of TestInternalReachability: package-level
// functions under internal/ that no command, example, facade export or
// initializer reaches, kept on purpose. Every entry is a row of DESIGN.md's
// "Kept without a production caller" table and carries that row's reason.
var reachKeep = map[string]string{
	"internal/octree.SurfaceArea": "ROADMAP item 2's surface-to-volume oracle (arXiv:2106.12856) measures with it; a reference tests compare against",
	"internal/net.DecodeFrame":    "the fuzz entry: FuzzDecodeFrame drives it and ReadFrame side by side over the one header parser",
	"internal/comm.Bcast":         "MPI substrate: lint fixtures divergebad/divergeok and the collective-mismatch tests ride on it",
	"internal/comm.ExclusiveScan": "MPI substrate: the checked-runtime mismatch tests ride on it",
	"internal/comm.MaxI64":        "MPI substrate: the reduction operator the Allreduce tests of comm, net and fault use",
	"internal/comm.MinI64":        "MPI substrate: the reduction operator the Allreduce tests of comm and net use",
}

// TestInternalReachability is the gate under DESIGN.md's rent ledger: every
// package-level func and type declared in a non-test file under internal/
// must be reachable from a root, or be listed in reachKeep with its reason.
// Roots are every main and init, every package-level var, and every
// exported name of the root facade package. A reference is any use of a
// package-level object inside a declaration, and a method is live with its
// receiver type, so the sweep is conservative: it never calls live code
// dead.
func TestInternalReachability(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	internal := loader.ModPath + "/internal/"

	// refs[o] lists the package-level objects of this module that o's
	// declaration uses; a method's uses are filed under its receiver type.
	refs := map[types.Object][]types.Object{}
	var roots []types.Object
	for _, pkg := range pkgs {
		collect := func(owner types.Object, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				o := pkg.Info.Uses[id]
				if o != nil && o.Pkg() != nil && o.Parent() == o.Pkg().Scope() && strings.HasPrefix(o.Pkg().Path(), loader.ModPath) {
					refs[owner] = append(refs[owner], o)
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
						owner = receiverType(pkg.Info, d.Recv.List[0].Type)
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
		if pkg.Path == loader.ModPath {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				if o := scope.Lookup(name); o.Exported() {
					roots = append(roots, o)
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

	// An allow-list entry must name a function that exists and that nothing
	// else reaches; otherwise the entry is stale.
	live := reach(roots)
	for key, reason := range reachKeep {
		dot := strings.LastIndex(key, ".")
		var o types.Object
		for _, pkg := range pkgs {
			if pkg.Path == loader.ModPath+"/"+key[:dot] {
				o = pkg.Types.Scope().Lookup(key[dot+1:])
			}
		}
		switch {
		case reason == "":
			t.Errorf("reachKeep[%q] has no reason", key)
		case o == nil:
			t.Errorf("reachKeep[%q]: no such name; delete the entry", key)
		case live[o]:
			t.Errorf("reachKeep[%q] now has a caller; delete the entry", key)
		default:
			roots = append(roots, o)
		}
	}
	live = reach(roots)

	var dead []string
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
					pos := loader.Fset.Position(o.Pos())
					rel, _ := filepath.Rel(loader.ModRoot, pos.Filename)
					dead = append(dead, rel+": "+strings.TrimPrefix(pkg.Path, loader.ModPath+"/")+"."+name)
				}
			}
		}
	}
	for _, d := range dead {
		t.Errorf("no caller outside its own tests: %s", d)
	}
	if len(dead) > 0 {
		t.Log("give it a caller, delete it with the tests of the behaviour that leaves, or add it to reachKeep with the ledger's reason")
	}
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
