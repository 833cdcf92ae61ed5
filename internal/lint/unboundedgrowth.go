package lint

// unboundedgrowth flags long-lived state that only ever grows. The bug
// class is the one psort.MaxArenaKeys and the service LRU exist to
// prevent: a slice field appended to on every request, or a map field
// gaining a key per tenant/seq/connection, with no trim, reset, eviction,
// or bound anywhere in the package. Under the ROADMAP's service workload
// (millions of requests, client-chosen tenant strings) such a field is a
// slow memory exhaustion, invisible to short tests.
//
// Growth sites — in library code, on state that outlives a call:
//
//   - self-append into a slice field of the method's pointer receiver (or
//     a package-level var): x.f = append(x.f, ...),
//   - stores and compound assignments into a map field keyed by anything:
//     x.f[k] = v, x.f[k] += c, x.f[k]++.
//
// A site stays silent if the package shows any bounding discipline for
// that field:
//
//   - a reslice (x.f = x.f[:n]), nil-out, or clear(x.f) anywhere,
//   - a removal append (x.f = append(x.f[:i], x.f[i+1:]...)),
//   - delete(x.f, ...) for maps, or a reslice of a map entry
//     (x.f[k][:0], the window-prune idiom in fault.RespawnBudget),
//   - the growth site sits under an if/for condition mentioning
//     len(x.f) or cap(x.f) — the explicit-bound idiom.
//
// Initialization via make/composite literals is deliberately NOT evidence:
// every constructor does that, and it bounds nothing.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var UnboundedGrowth = &Analyzer{
	Name: "unboundedgrowth",
	Doc:  "long-lived fields that only grow are a slow memory exhaustion under service traffic — trim, evict, or bound them",
	Run:  runUnboundedGrowth,
}

// growthSite is one observed append/store into long-lived state.
type growthSite struct {
	obj  types.Object
	pos  token.Pos
	kind string // "append" or "map store"
}

func runUnboundedGrowth(p *Pass) {
	if !isLibraryPkg(p.Path) || isLintPkg(p.Path) {
		return
	}
	var sites []growthSite
	trimmed := map[types.Object]bool{}

	for _, f := range p.Files {
		for _, fd := range funcBodies(f) {
			recv := receiverObj(p, fd)
			collectGrowth(p, fd, recv, &sites, trimmed)
		}
	}
	for _, s := range sites {
		if trimmed[s.obj] {
			continue
		}
		p.Report(s.pos, "%s into %s grows without bound: the package never reslices, deletes, clears, or len-guards it — bound it (cf. psort.MaxArenaKeys, the service cache's LRU eviction)", s.kind, s.obj.Name())
	}
}

// receiverObj returns the object of fd's pointer receiver, or nil.
func receiverObj(p *Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	obj := p.Info.Defs[fd.Recv.List[0].Names[0]]
	if obj == nil {
		return nil
	}
	if _, ok := obj.Type().(*types.Pointer); !ok {
		return nil
	}
	return obj
}

// longLivedField resolves e to the field object it names, when e is a
// selector rooted at the method's pointer receiver (x.f, x.a.f) or e is a
// package-level var. Anything else — locals, params, value receivers —
// returns nil: growth there dies with the call (or is someone else's field
// to audit).
func longLivedField(p *Pass, e ast.Expr, recv types.Object) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		fieldObj, ok := p.Info.Uses[x.Sel].(*types.Var)
		if !ok || !fieldObj.IsField() {
			return nil
		}
		base := ast.Unparen(x.X)
		for {
			sel, ok := base.(*ast.SelectorExpr)
			if !ok {
				break
			}
			base = ast.Unparen(sel.X)
		}
		if id, ok := base.(*ast.Ident); ok {
			obj := p.Info.Uses[id]
			if obj != nil && (obj == recv || isPackageVar(p, obj)) {
				return fieldObj
			}
		}
		return nil
	case *ast.Ident:
		if obj := p.Info.Uses[x]; obj != nil && isPackageVar(p, obj) {
			return obj
		}
	}
	return nil
}

func isPackageVar(p *Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Parent() == p.Pkg.Scope()
}

// sameField reports whether e resolves to obj (selector tail or ident).
func sameField(p *Pass, e ast.Expr, obj types.Object) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return p.Info.Uses[x.Sel] == obj
	case *ast.Ident:
		return p.Info.Uses[x] == obj
	}
	return false
}

// collectGrowth walks one function, recording growth sites and trim
// evidence. conds carries the enclosing if/for conditions so a len/cap
// guard silences the sites under it.
func collectGrowth(p *Pass, fd *ast.FuncDecl, recv types.Object, sites *[]growthSite, trimmed map[types.Object]bool) {
	var conds []ast.Expr
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m == n {
				return true
			}
			switch x := m.(type) {
			case *ast.IfStmt:
				if x.Init != nil {
					walk(x.Init)
				}
				conds = append(conds, x.Cond)
				walk(x.Body)
				if x.Else != nil {
					walk(x.Else)
				}
				conds = conds[:len(conds)-1]
				return false
			case *ast.ForStmt:
				if x.Init != nil {
					walk(x.Init)
				}
				if x.Cond != nil {
					conds = append(conds, x.Cond)
				}
				walk(x.Body)
				if x.Cond != nil {
					conds = conds[:len(conds)-1]
				}
				return false
			case *ast.AssignStmt:
				checkGrowthAssign(p, x, recv, conds, sites, trimmed)
			case *ast.IncDecStmt:
				if idx, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
					checkMapStore(p, idx, x.Pos(), recv, conds, sites)
				}
			case *ast.CallExpr:
				checkTrimCall(p, x, recv, trimmed)
			case *ast.SliceExpr:
				// Reslicing an entry of a long-lived map (x.f[k][:0]) is the
				// window-prune idiom: entries get rebuilt from a truncated
				// base, so the map's contents are actively bounded.
				if idx, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
					if obj := longLivedField(p, idx.X, recv); obj != nil {
						if _, isMap := obj.Type().Underlying().(*types.Map); isMap {
							trimmed[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	walk(fd.Body)
}

func checkGrowthAssign(p *Pass, as *ast.AssignStmt, recv types.Object, conds []ast.Expr, sites *[]growthSite, trimmed map[types.Object]bool) {
	for i, lhs := range as.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			checkMapStore(p, idx, as.Pos(), recv, conds, sites)
			continue
		}
		obj := longLivedField(p, lhs, recv)
		if obj == nil {
			continue
		}
		if as.Tok != token.ASSIGN || i >= len(as.Rhs) {
			continue
		}
		rhs := ast.Unparen(as.Rhs[i])
		switch r := rhs.(type) {
		case *ast.SliceExpr:
			if sameField(p, r.X, obj) {
				trimmed[obj] = true // x.f = x.f[:n]
			}
		case *ast.Ident:
			if r.Name == "nil" {
				trimmed[obj] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "append" && len(r.Args) > 0 {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					first := ast.Unparen(r.Args[0])
					if se, ok := first.(*ast.SliceExpr); ok && sameField(p, se.X, obj) {
						trimmed[obj] = true // removal idiom: append(f[:i], f[i+1:]...)
					} else if sameField(p, first, obj) && !lenGuarded(p, conds, obj) {
						*sites = append(*sites, growthSite{obj: obj, pos: as.Pos(), kind: "append"})
					}
				}
			}
		}
	}
}

// checkMapStore records a store through x.f[k] when x.f is a long-lived
// map field (stores through slices re-use existing slots and are silent).
func checkMapStore(p *Pass, idx *ast.IndexExpr, pos token.Pos, recv types.Object, conds []ast.Expr, sites *[]growthSite) {
	obj := longLivedField(p, idx.X, recv)
	if obj == nil {
		return
	}
	if _, isMap := obj.Type().Underlying().(*types.Map); !isMap {
		return
	}
	if lenGuarded(p, conds, obj) {
		return
	}
	*sites = append(*sites, growthSite{obj: obj, pos: pos, kind: "map store"})
}

// checkTrimCall credits delete(x.f, ...) and clear(x.f) as trim evidence.
func checkTrimCall(p *Pass, call *ast.CallExpr, recv types.Object, trimmed map[types.Object]bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if id.Name != "delete" && id.Name != "clear" {
		return
	}
	if obj := longLivedField(p, call.Args[0], recv); obj != nil {
		trimmed[obj] = true
	}
}

// lenGuarded reports whether any enclosing condition mentions len or cap of
// the field — the explicit-bound idiom `if len(x.f) < max { append }`.
func lenGuarded(p *Pass, conds []ast.Expr, obj types.Object) bool {
	for _, c := range conds {
		guarded := false
		ast.Inspect(c, func(n ast.Node) bool {
			if guarded {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || (id.Name != "len" && id.Name != "cap") {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if sameField(p, call.Args[0], obj) {
				guarded = true
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}
