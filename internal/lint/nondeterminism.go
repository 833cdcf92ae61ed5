package lint

// nondeterminism guards the golden transcripts: every modeled run must be
// bit-reproducible, so anything that can flip an output bit from one run to
// the next is an error in library code —
//
//   - wall-clock reads (time.Now/Since/Until) leaking into modeled values,
//   - the shared, process-global math/rand generators (seeded *rand.Rand
//     instances are the blessed path),
//   - map iteration whose body performs order-sensitive accumulation:
//     appending to an ordered slice that is never sorted afterwards,
//     float sums (addition is not associative in floating point), string
//     concatenation, or direct formatted output,
//   - goroutines escaping the SPMD runtime: state merged without a comm
//     barrier depends on the host scheduler.
//
// Integer accumulation over a map is commutative and exact, so it stays
// silent; so does the collect-keys-then-sort idiom.

import (
	"go/ast"
	"go/types"
	"strings"
)

var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "wall clocks, global rand, map-order-dependent accumulation, and stray goroutines flip golden-transcript bits",
	Run:  runNondeterminism,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the blessed entry points into math/rand: building a
// seeded generator is exactly how deterministic code should use the package.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func runNondeterminism(p *Pass) {
	if !isLibraryPkg(p.Path) || isLintPkg(p.Path) || isNetPkg(p.Path) {
		return
	}
	for _, f := range p.Files {
		for _, fd := range funcBodies(f) {
			ast.Inspect(fd, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					checkNondetCall(p, x)
				case *ast.GoStmt:
					// internal/comm owns the SPMD rank goroutines and
					// internal/par owns the pool workers; everywhere else a
					// raw go statement bypasses both sanctioned schedulers.
					if !isCommPkg(p.Path) && !isParPkg(p.Path) {
						p.Report(x.Pos(), "goroutine outside the comm runtime: state it produces is merged without a barrier, so completion order can reorder output — use internal/par for intra-rank parallelism")
					}
				case *ast.RangeStmt:
					checkMapRange(p, fd, x)
				}
				return true
			})
		}
	}
}

func checkNondetCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	isMethod := fn.Type().(*types.Signature).Recv() != nil
	switch {
	case pkg == "time" && !isMethod && wallClockFuncs[name]:
		p.Report(call.Pos(), "time.%s reads the wall clock: modeled runs must derive every value from the cost model, or the transcript changes between hosts", name)
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !isMethod && !randConstructors[name]:
		p.Report(call.Pos(), "rand.%s uses the process-global generator: draw from a seeded *rand.Rand so runs are reproducible", name)
	}
}

// checkMapRange flags order-sensitive bodies of a range over a map.
func checkMapRange(p *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	tv, ok := p.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			checkMapRangeAssign(p, fn, rng, x)
		case *ast.CallExpr:
			if fl, ok := formattedOutputCall(p, x); ok {
				p.Report(x.Pos(), "%s inside range over map emits in random key order: collect and sort keys first", fl)
			}
		}
		return true
	})
}

func checkMapRangeAssign(p *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		obj := assignTarget(p.Info, lhs)
		if obj == nil || obj.Pos() > rng.Pos() {
			continue // loop-local state dies with the iteration
		}
		lhsType := obj.Type()
		switch as.Tok.String() {
		case "+=":
			switch t := lhsType.Underlying().(type) {
			case *types.Basic:
				if t.Info()&types.IsFloat != 0 {
					p.Report(as.Pos(), "float accumulation in range over map: float addition is not associative, so the sum's bits depend on key order — sort keys first")
				} else if t.Info()&types.IsString != 0 {
					p.Report(as.Pos(), "string concatenation in range over map builds output in random key order: sort keys first")
				}
			}
		case "=":
			if i < len(as.Rhs) {
				if isAppendTo(p.Info, as.Rhs[i], obj) && !sortedAfter(p.Info, fn, rng, obj) {
					p.Report(as.Pos(), "append in range over map collects in random key order and the slice is never sorted afterwards: sort it (or sort the keys) before it becomes output")
				}
			}
		}
	}
}

// assignTarget resolves the object an assignment writes through, for plain
// identifiers and selector fields (x.total). Index targets are skipped —
// element writes keyed by the map key land deterministically.
func assignTarget(info *types.Info, lhs ast.Expr) types.Object {
	switch l := lhs.(type) {
	case *ast.Ident:
		if obj := info.Uses[l]; obj != nil {
			return obj
		}
		return info.Defs[l]
	case *ast.SelectorExpr:
		return info.Uses[l.Sel]
	}
	return nil
}

// isAppendTo reports whether rhs is append(obj, ...).
func isAppendTo(info *types.Info, rhs ast.Expr, obj types.Object) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || id.Name != "append" {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	return ok && info.Uses[first] == obj
}

// sorters are the sort and slices functions that sort their first
// argument in place.
var sorters = map[string]bool{
	"sort.Ints": true, "sort.Strings": true, "sort.Float64s": true, "sort.Slice": true,
	"sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedAfter reports whether obj, or a conversion of it (sort.Sort's
// byKey(ids)), is sorted by one of the sorters after the range loop within
// the same function — the collect-then-sort idiom that restores
// determinism.
func sortedAfter(info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil || callee.Pkg() == nil || !sorters[callee.Pkg().Path()+"."+callee.Name()] || len(call.Args) == 0 {
			return true
		}
		arg := call.Args[0]
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 && info.Types[conv.Fun].IsType() {
			arg = conv.Args[0]
		}
		if id, ok := arg.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// formattedOutputCall recognizes calls that emit ordered output directly:
// fmt printers and Write* methods on builders/writers.
func formattedOutputCall(p *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print")) {
		return "fmt." + name, true
	}
	if fn.Type().(*types.Signature).Recv() != nil && strings.HasPrefix(name, "Write") {
		return name, true
	}
	return "", false
}
