package lint

// apihygiene pins the PR-3 performance work and the checked runtime's error
// discipline so later PRs cannot quietly regress them:
//
//   - the reflection- and interface-based sort entry points (sort.Slice,
//     sort.Search, sort.Ints, ...) were deliberately replaced with the
//     generic slices functions and precomputed sfc ranks; reintroducing one
//     is a silent 2-3x hot-path regression,
//   - sfc.NewCurve is memoized, but the memo lookup takes a lock — calling
//     it inside a loop is a construction site that belongs outside,
//   - library panics must carry error values (or re-throw an interface):
//     the checked runtime recovers rank panics into structured RankFailure
//     reports, and a bare string panic loses the typed cause,
//   - curve order is rank order: outside internal/sfc, library code orders
//     keys by sfc.Rank and searches by rank. The tree-walking
//     (*sfc.Curve).Compare is the reference the sfc oracles check Rank
//     against, and a call or method value of it (or of a Less beside it) is
//     a second order on a production path.

import (
	"go/ast"
	"go/types"
	"strings"
)

var APIHygiene = &Analyzer{
	Name: "apihygiene",
	Doc:  "reflection sorts, looped NewCurve, non-error panics and tree-walking curve order regress deliberate design decisions",
	Run:  runAPIHygiene,
}

// curveOrders are the tree-walking order methods of sfc.Curve.
var curveOrders = map[string]bool{"Compare": true, "Less": true}

// reflectionSorts are the sort entry points PR 3 retired, with their
// replacements.
var reflectionSorts = map[string]string{
	"Slice":         "slices.SortFunc",
	"SliceStable":   "slices.SortStableFunc",
	"SliceIsSorted": "slices.IsSortedFunc",
	"Sort":          "slices.SortFunc",
	"Stable":        "slices.SortStableFunc",
	"Search":        "slices.BinarySearchFunc",
	"SearchInts":    "slices.BinarySearch",
	"Ints":          "slices.Sort",
	"Strings":       "slices.Sort",
	"Float64s":      "slices.Sort",
}

func runAPIHygiene(p *Pass) {
	if isLintPkg(p.Path) {
		return
	}
	rankOrder := isLibraryPkg(p.Path) && !isSfcPkg(p.Path)
	for _, f := range p.Files {
		for _, fd := range funcBodies(f) {
			hygieneWalk(p, fd.Body, 0)
		}
		if rankOrder {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					checkCurveOrder(p, sel)
				}
				return true
			})
		}
	}
}

// isSfcPkg reports whether path is internal/sfc, home of both curve orders.
func isSfcPkg(path string) bool { return strings.HasSuffix(path, "internal/sfc") }

// checkCurveOrder reports a selection of (*sfc.Curve).Compare or Less,
// called or taken as a method value or expression.
func checkCurveOrder(p *Pass, sel *ast.SelectorExpr) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if ok && curveOrders[fn.Name()] && recvNamed(fn) == "Curve" && isSfcPkg(fn.Pkg().Path()) {
		p.Report(sel.Sel.Pos(), "(*sfc.Curve).%s walks the tree per comparison and is the reference order: order keys by sfc.Rank and search by rank (sfc.LowerBound, UpperBound, Curve.LowerBoundKeys)", fn.Name())
	}
}

// hygieneWalk visits calls under n, tracking how many enclosing loops each
// call sits inside. Function literals restart the count: they run where
// they are invoked, not where they are written.
func hygieneWalk(p *Pass, n ast.Node, loopDepth int) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil || m == n {
			return true
		}
		switch x := m.(type) {
		case *ast.ForStmt:
			if x.Init != nil {
				hygieneWalk(p, x.Init, loopDepth)
			}
			if x.Cond != nil {
				hygieneWalk(p, x.Cond, loopDepth)
			}
			if x.Post != nil {
				hygieneWalk(p, x.Post, loopDepth)
			}
			hygieneWalk(p, x.Body, loopDepth+1)
			return false
		case *ast.RangeStmt:
			hygieneWalk(p, x.X, loopDepth)
			hygieneWalk(p, x.Body, loopDepth+1)
			return false
		case *ast.FuncLit:
			hygieneWalk(p, x.Body, 0)
			return false
		case *ast.CallExpr:
			checkHygieneCall(p, x, loopDepth)
		}
		return true
	})
}

func checkHygieneCall(p *Pass, call *ast.CallExpr, loopDepth int) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			if b.Name() == "panic" && len(call.Args) == 1 && isLibraryPkg(p.Path) {
				checkPanicArg(p, call)
			}
			return
		}
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if pkg == "sort" && fn.Type().(*types.Signature).Recv() == nil {
		if repl, bad := reflectionSorts[name]; bad {
			p.Report(call.Pos(), "sort.%s is reflection/interface-based: use %s (or precomputed sfc ranks) — PR 3 measured the generic path 2-3x faster on the hot sorts", name, repl)
		}
		return
	}
	if name == "NewCurve" && loopDepth > 0 && isSfcPkg(pkg) {
		p.Report(call.Pos(), "NewCurve inside a loop: construction is memoized but each call takes the memo lock — hoist the curve out of the loop")
	}
}

// checkPanicArg requires the panicked value to be an error (or an
// interface, covering re-panics of recover() values whose dynamic type is
// unknown).
func checkPanicArg(p *Pass, call *ast.CallExpr) {
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return
	}
	t := types.Default(tv.Type)
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if types.Implements(t, errType) {
		return
	}
	p.Report(call.Args[0].Pos(), "panic with a non-error %s: library panics must carry an error value so RunChecked's recover can report a typed RankFailure cause", t.String())
}
