package lint

// condwait pins the condition-variable protocol every hand-rolled monitor
// in this repo relies on (internal/par's pool, internal/net's Root/Worker
// steps, internal/service's singleflight and admission):
//
//	mu.Lock()
//	for !predicate() {
//	    cond.Wait()
//	}
//
// sync.Cond.Wait releases cond.L, sleeps, and re-acquires — so a woken
// waiter holds the lock but has NO guarantee the predicate is true: wakeups
// can be spurious, and another waiter may have consumed the state between
// the Broadcast and the re-acquire. Three findings:
//
//  1. a Wait not enclosed in a for/range loop (an `if` check races),
//  2. a Wait in an unconditional `for {}` whose body never branches —
//     the predicate is not re-checked anywhere, so the wakeup is wasted
//     (or worse, treated as the event),
//  3. a Wait with no Lock call lexically before it in the same function —
//     Wait without holding cond.L panics at runtime ("sync: unlock of
//     unlocked mutex"); acquiring in a caller is invisible here, so such
//     protocols need a //lint:ignore with the protocol documented.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var CondWait = &Analyzer{
	Name: "condwait",
	Doc:  "sync.Cond.Wait must sit in a for loop re-checking its predicate while holding cond.L",
	Run:  runCondWait,
}

func runCondWait(p *Pass) {
	if isLintPkg(p.Path) {
		return
	}
	for _, f := range p.Files {
		for _, fd := range funcBodies(f) {
			checkCondScope(p, fd.Body)
		}
	}
}

// checkCondScope analyzes one function scope. Function literals are
// analyzed as scopes of their own: a Wait inside a literal cannot rely on a
// loop (or a Lock) outside it, because the literal runs wherever it is
// invoked.
func checkCondScope(p *Pass, body *ast.BlockStmt) {
	var path []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				path = path[:len(path)-1]
				return true
			}
			if fl, ok := m.(*ast.FuncLit); ok && m != n {
				checkCondScope(p, fl.Body)
				return false
			}
			path = append(path, m)
			if call, ok := m.(*ast.CallExpr); ok && isCondWait(p, call) {
				checkWaitSite(p, body, path, call)
			}
			return true
		})
	}
	walk(body)
}

// isCondWait matches x.Wait() resolving to (*sync.Cond).Wait.
func isCondWait(p *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(p.Info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		fn.Name() == "Wait" && recvNamed(fn) == "Cond"
}

// recvNamed returns the name of the method's receiver's named type ("" for
// package functions).
func recvNamed(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkWaitSite applies the three protocol checks to one Wait call whose
// ancestor path (innermost last) is known.
func checkWaitSite(p *Pass, scope *ast.BlockStmt, path []ast.Node, call *ast.CallExpr) {
	var loop ast.Node
	for i := len(path) - 1; i >= 0; i-- {
		switch path[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loop = path[i]
		}
		if loop != nil {
			break
		}
	}
	if loop == nil {
		p.Report(call.Pos(), "sync.Cond.Wait outside a for loop: wakeups are spurious and the state may be consumed before the waiter re-acquires cond.L — wrap it in `for !predicate() { cond.Wait() }`")
		return
	}
	if fs, ok := loop.(*ast.ForStmt); ok && fs.Cond == nil && !bodyRechecks(fs.Body) {
		p.Report(call.Pos(), "sync.Cond.Wait in an unconditional loop that never re-checks a predicate: a woken waiter must re-test the condition it slept on before acting")
	}
	if !lockPrecedes(p, scope, call.Pos()) {
		p.Report(call.Pos(), "sync.Cond.Wait with no Lock call before it in this function: Wait requires cond.L held (it unlocks, sleeps, re-locks) — if a caller holds the lock, document the protocol with a //lint:ignore")
	}
}

// bodyRechecks reports whether the loop body contains any branching
// statement (if/switch/select) outside nested function literals — the shape
// of a predicate re-check in a `for { ... Wait() }` monitor loop.
func bodyRechecks(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			found = true
		}
		return !found
	})
	return found
}

// lockPrecedes reports whether any Lock/RLock method call occurs lexically
// before pos within the scope.
func lockPrecedes(p *Pass, scope *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		if fl, ok := n.(*ast.FuncLit); ok {
			// Only the literal enclosing pos is part of its lexical scope; a
			// Lock inside some other closure runs on another goroutine.
			return fl.Pos() <= pos && pos <= fl.End()
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		if name := fn.Name(); name == "Lock" || name == "RLock" {
			if fn.Type().(*types.Signature).Recv() != nil {
				found = true
			}
		}
		return true
	})
	return found
}
