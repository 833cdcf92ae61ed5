package lint

// lockorder builds the package-spanning lock-acquisition graph and reports
// potential deadlock cycles. PRs 5-8 grew hand-rolled mutex protocols
// (internal/par's pool, internal/net's double-mutex Root/Worker,
// internal/service's cache and admission); each is safe only
// while every code path acquires its locks in one consistent order, and
// nothing enforced that until now.
//
// A lock is identified by where it lives, not which instance it is:
// "Type.field" for a mutex field of a named struct, "var" for a
// package-level mutex. The analysis walks every function in source order,
// tracking the set of held locks (Lock/RLock acquire, Unlock/RUnlock
// release; deferred unlocks hold to function end). It records
//
//   - a direct edge A -> B when B is acquired while A is held, and
//   - a call edge A -> B when a same-package function that (transitively)
//     acquires B is called while A is held,
//
// then reports every edge that participates in a cycle of the resulting
// graph. Two functions taking the same two locks in opposite orders is the
// classic 2-cycle; longer cycles through helper calls are caught by the
// transitive call summaries. Same-identity nesting (A while A) is not
// reported: distinct instances of one type may be locked hierarchically.
import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "inconsistent mutex acquisition order across a package is a deadlock waiting for the right interleaving",
	Run:  runLockOrder,
}

// lockEdge is one observed acquisition ordering: to was acquired (directly
// or via a call) while from was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee name for call edges, "" for direct acquisitions
}

// lockCallSite is a same-package call made while holding locks.
type lockCallSite struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

func runLockOrder(p *Pass) {
	if isLintPkg(p.Path) {
		return
	}
	decls := packageFuncDecls(p)

	var edges []lockEdge
	direct := map[*types.Func]map[string]bool{} // locks a function acquires itself
	calls := map[*types.Func][]lockCallSite{}

	for fn, fd := range decls {
		acq, sites := scanLocks(p, fd)
		direct[fn] = acq
		calls[fn] = sites
	}

	// Transitive closure: every lock a function can acquire through
	// same-package calls, to a fixpoint.
	trans := map[*types.Func]map[string]bool{}
	for fn, acq := range direct {
		t := map[string]bool{}
		for l := range acq {
			t[l] = true
		}
		trans[fn] = t
	}
	for changed := true; changed; {
		changed = false
		for fn := range trans {
			for _, site := range calls[fn] {
				for l := range trans[site.callee] {
					if !trans[fn][l] {
						trans[fn][l] = true
						changed = true
					}
				}
			}
		}
	}

	// Edges: direct nested acquisitions were recorded during the scan via
	// held snapshots in the call sites plus the direct edge list; rebuild
	// both here from the per-function scans.
	for fn, fd := range decls {
		_ = fn
		edges = append(edges, directEdges(p, fd)...)
	}
	for fn := range decls {
		for _, site := range calls[fn] {
			for _, h := range site.held {
				for l := range trans[site.callee] {
					if l != h {
						edges = append(edges, lockEdge{from: h, to: l, pos: site.pos, via: site.callee.Name()})
					}
				}
			}
		}
	}

	reportLockCycles(p, edges)
}

// packageFuncDecls indexes every function declaration by its types object.
func packageFuncDecls(p *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, fd := range funcBodies(f) {
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// lockIdent names the lock a (un)lock call operates on: "Type.field" for a
// mutex field of a named type, the variable name for a package-level mutex.
// Locks the analysis cannot anchor (locals, parameters, interface lockers)
// return "".
func lockIdent(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch recv := unparen(sel.X).(type) {
	case *ast.SelectorExpr: // x.mu.Lock()
		fieldObj, ok := p.Info.Uses[recv.Sel].(*types.Var)
		if !ok || !fieldObj.IsField() {
			return ""
		}
		// Anchor the field to the named type that declares it.
		if base := unparen(recv.X); base != nil {
			if tv, ok := p.Info.Types[base]; ok {
				t := tv.Type
				for {
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
						continue
					}
					break
				}
				if named, ok := t.(*types.Named); ok {
					return named.Obj().Name() + "." + fieldObj.Name()
				}
			}
		}
		return ""
	case *ast.Ident: // mu.Lock() on a package-level mutex, or s.Lock() via embedding
		obj := p.Info.Uses[recv]
		if v, ok := obj.(*types.Var); ok && v.Parent() == p.Pkg.Scope() {
			return v.Name()
		}
		return ""
	}
	return ""
}

// mutexMethod classifies call as an acquire (+1), release (-1), or neither
// (0) of a sync mutex, returning the lock identity.
func mutexMethod(p *Pass, call *ast.CallExpr) (string, int) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0
	}
	dir := 0
	switch fn.Name() {
	case "Lock", "RLock":
		dir = 1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return "", 0
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", 0
	}
	name := recv.Type().String()
	if !strings.Contains(name, "sync.Mutex") && !strings.Contains(name, "sync.RWMutex") {
		return "", 0
	}
	id := lockIdent(p, call)
	if id == "" {
		return "", 0
	}
	return id, dir
}

// scanLocks walks fd in source order tracking held locks, returning the
// set of locks the function acquires and the same-package calls it makes
// while holding at least one lock. Deferred unlocks are ignored (the lock
// stays held to function end); unlocks in branches under-approximate, which
// can only drop edges, never invent them.
func scanLocks(p *Pass, fd *ast.FuncDecl) (map[string]bool, []lockCallSite) {
	acquired := map[string]bool{}
	var sites []lockCallSite
	var held []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			return false // deferred unlocks run at exit, not here
		case *ast.CallExpr:
			if id, dir := mutexMethod(p, x); id != "" {
				switch dir {
				case 1:
					acquired[id] = true
					if !slices.Contains(held, id) {
						held = append(held, id)
					}
				case -1:
					if i := slices.Index(held, id); i >= 0 {
						held = slices.Delete(held, i, i+1)
					}
				}
				return true
			}
			if fn := calleeFunc(p.Info, x); fn != nil && fn.Pkg() == p.Pkg && len(held) > 0 {
				sites = append(sites, lockCallSite{callee: fn, held: slices.Clone(held), pos: x.Pos()})
			}
		}
		return true
	})
	return acquired, sites
}

// directEdges re-walks fd emitting held -> acquired edges for nested
// acquisitions in the function body itself.
func directEdges(p *Pass, fd *ast.FuncDecl) []lockEdge {
	var edges []lockEdge
	var held []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if id, dir := mutexMethod(p, x); id != "" {
				switch dir {
				case 1:
					for _, h := range held {
						if h != id {
							edges = append(edges, lockEdge{from: h, to: id, pos: x.Pos()})
						}
					}
					if !slices.Contains(held, id) {
						held = append(held, id)
					}
				case -1:
					if i := slices.Index(held, id); i >= 0 {
						held = slices.Delete(held, i, i+1)
					}
				}
			}
		}
		return true
	})
	return edges
}

// reportLockCycles finds every edge on a cycle of the acquisition graph and
// reports it at the acquisition site.
func reportLockCycles(p *Pass, edges []lockEdge) {
	succ := map[string]map[string]bool{}
	for _, e := range edges {
		if succ[e.from] == nil {
			succ[e.from] = map[string]bool{}
		}
		succ[e.from][e.to] = true
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			for m := range succ[n] {
				stack = append(stack, m)
			}
		}
		return false
	}

	// One report per (from, to) pair, at the earliest recorded site.
	type key struct{ from, to string }
	best := map[key]lockEdge{}
	for _, e := range edges {
		if !reaches(e.to, e.from) {
			continue // not on a cycle
		}
		k := key{e.from, e.to}
		if prev, ok := best[k]; !ok || e.pos < prev.pos {
			best[k] = e
		}
	}
	var cyclic []lockEdge
	for _, e := range best {
		cyclic = append(cyclic, e)
	}
	slices.SortFunc(cyclic, func(a, b lockEdge) int {
		if a.pos != b.pos {
			return int(a.pos - b.pos)
		}
		return strings.Compare(a.from+a.to, b.from+b.to)
	})
	for _, e := range cyclic {
		how := ""
		if e.via != "" {
			how = fmt.Sprintf(" (via call to %s)", e.via)
		}
		p.Report(e.pos, "acquiring %s while holding %s%s completes a lock-order cycle: another path acquires them in the opposite order, so the right interleaving deadlocks — pick one acquisition order and document it on the struct", e.to, e.from, how)
	}
}
