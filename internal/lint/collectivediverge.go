package lint

// collectivediverge enforces the SPMD contract: every rank executes the
// same collective sequence. A collective called under a branch, loop bound,
// or after an early exit whose condition is data-flow-tainted by the rank
// id deadlocks real MPI and costs a whole run before RunChecked can poison
// the barrier; here it is a compile-time error.
//
// The analysis is intraprocedural: taint seeds at c.Rank() calls and flows
// through assignments (taint.go); the scanner then tracks three hazards —
//
//  1. a collective lexically inside a rank-tainted condition,
//  2. a collective after a rank-tainted early exit (return/goto), where
//     escaped ranks never reach it,
//  3. a collective inside a loop whose exit (break/continue under a
//     tainted condition, or a tainted bound) varies per rank.
//
// Uniform conditions — values every rank computes identically, including
// collective results — never taint, so idiomatic patterns (rank-conditional
// data prep before an Allgather, loops to c.Size(), convergence loops
// bounded by an Allreduce result) stay silent.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var CollectiveDiverge = &Analyzer{
	Name: "collectivediverge",
	Doc:  "collectives guarded by rank-dependent control flow diverge the SPMD sequence",
	Run:  runCollectiveDiverge,
}

// collectiveFuncs are the comm collectives (package functions and the
// Barrier method).
var collectiveFuncs = map[string]bool{
	"Allreduce": true, "AllreduceScalar": true, "Allgather": true,
	"Alltoallv": true, "Barrier": true,
}

// collectiveCall returns the collective's name if call is one.
func collectiveCall(p *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil || !collectiveFuncs[fn.Name()] {
		return "", false
	}
	if isCommPkg(fn.Pkg().Path()) {
		return fn.Name(), true
	}
	return "", false
}

func runCollectiveDiverge(p *Pass) {
	// The runtime's own interior is legitimately rank-asymmetric between
	// barriers (rank 0 computes for everyone), and the linter analyses
	// collective calls rather than making them.
	if isCommPkg(p.Path) || isLintPkg(p.Path) {
		return
	}
	for _, f := range p.Files {
		for _, fd := range funcBodies(f) {
			s := &divergeScanner{
				pass:     p,
				taint:    rankTaint(p.Info, fd),
				reported: map[token.Pos]bool{},
			}
			s.stmts(fd.Body.List, divergeCtx{})
		}
	}
}

// divergeCtx is the control-flow context a statement executes under.
type divergeCtx struct {
	tainted  bool // inside a rank-dependent branch or loop
	diverged bool // after a rank-dependent early exit in this sequence
}

// escapes summarizes the control-flow exits a statement list can take.
// The tainted variants are exits guarded by a rank-dependent condition —
// the ones that diverge ranks from each other.
type escapes struct {
	ret, brk, cont                      bool
	taintedRet, taintedBrk, taintedCont bool
}

func (e escapes) anyTainted() bool { return e.taintedRet || e.taintedBrk || e.taintedCont }

func (e *escapes) union(o escapes) {
	e.ret = e.ret || o.ret
	e.brk = e.brk || o.brk
	e.cont = e.cont || o.cont
	e.taintedRet = e.taintedRet || o.taintedRet
	e.taintedBrk = e.taintedBrk || o.taintedBrk
	e.taintedCont = e.taintedCont || o.taintedCont
}

// promote turns every raw escape into a tainted one: the escapes sit under
// a condition that is itself rank-dependent.
func (e *escapes) promote() {
	e.taintedRet = e.taintedRet || e.ret
	e.taintedBrk = e.taintedBrk || e.brk
	e.taintedCont = e.taintedCont || e.cont
}

type divergeScanner struct {
	pass     *Pass
	taint    map[types.Object]bool
	reported map[token.Pos]bool
}

func (s *divergeScanner) stmts(list []ast.Stmt, ctx divergeCtx) escapes {
	var esc escapes
	for _, st := range list {
		e := s.stmt(st, ctx)
		esc.union(e)
		if e.anyTainted() {
			// Ranks that took the exit skip everything after it in this
			// sequence (a return skips the rest of the function, a tainted
			// break/continue the rest of the loop body).
			ctx.diverged = true
		}
	}
	return esc
}

func (s *divergeScanner) stmt(st ast.Stmt, ctx divergeCtx) escapes {
	var esc escapes
	switch n := st.(type) {
	case *ast.IfStmt:
		if n.Init != nil {
			esc.union(s.stmt(n.Init, ctx))
		}
		s.expr(n.Cond, ctx)
		condTainted := s.tainted(n.Cond)
		inner := ctx
		inner.tainted = inner.tainted || condTainted
		bodyEsc := s.stmts(n.Body.List, inner)
		if n.Else != nil {
			bodyEsc.union(s.stmt(n.Else, inner))
		}
		if condTainted {
			bodyEsc.promote()
		}
		esc.union(bodyEsc)
	case *ast.ForStmt:
		if n.Init != nil {
			esc.union(s.stmt(n.Init, ctx))
		}
		s.expr(n.Cond, ctx)
		boundTainted := s.tainted(n.Cond)
		if n.Post != nil {
			if a, ok := n.Post.(*ast.AssignStmt); ok {
				for _, r := range a.Rhs {
					boundTainted = boundTainted || s.tainted(r)
				}
			}
		}
		inner := ctx
		inner.tainted = inner.tainted || boundTainted
		bodyEsc := s.stmts(n.Body.List, inner)
		if bodyEsc.anyTainted() && !inner.tainted {
			// The loop's exit is rank-dependent even though its bound is
			// not: every collective inside runs a per-rank number of times.
			s.reportAll(n.Body, "in a loop with a rank-dependent exit: per-rank iteration counts diverge the collective sequence")
		}
		esc.ret, esc.taintedRet = esc.ret || bodyEsc.ret, esc.taintedRet || bodyEsc.taintedRet
	case *ast.RangeStmt:
		s.expr(n.X, ctx)
		inner := ctx
		inner.tainted = inner.tainted || s.tainted(n.X)
		bodyEsc := s.stmts(n.Body.List, inner)
		if bodyEsc.anyTainted() && !inner.tainted {
			s.reportAll(n.Body, "in a loop with a rank-dependent exit: per-rank iteration counts diverge the collective sequence")
		}
		esc.ret, esc.taintedRet = esc.ret || bodyEsc.ret, esc.taintedRet || bodyEsc.taintedRet
	case *ast.SwitchStmt:
		if n.Init != nil {
			esc.union(s.stmt(n.Init, ctx))
		}
		s.expr(n.Tag, ctx)
		tagTainted := s.tainted(n.Tag)
		for _, cc := range n.Body.List {
			clause := cc.(*ast.CaseClause)
			clauseTainted := tagTainted
			for _, c := range clause.List {
				s.expr(c, ctx)
				clauseTainted = clauseTainted || s.tainted(c)
			}
			inner := ctx
			inner.tainted = inner.tainted || clauseTainted
			ce := s.stmts(clause.Body, inner)
			if clauseTainted {
				ce.promote()
			}
			ce.brk, ce.taintedBrk = false, false // break exits the switch; ranks reconverge
			esc.union(ce)
		}
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			esc.union(s.stmt(n.Init, ctx))
		}
		for _, cc := range n.Body.List {
			ce := s.stmts(cc.(*ast.CaseClause).Body, ctx)
			ce.brk, ce.taintedBrk = false, false
			esc.union(ce)
		}
	case *ast.SelectStmt:
		for _, cc := range n.Body.List {
			esc.union(s.stmts(cc.(*ast.CommClause).Body, ctx))
		}
	case *ast.BlockStmt:
		esc.union(s.stmts(n.List, ctx))
	case *ast.LabeledStmt:
		esc.union(s.stmt(n.Stmt, ctx))
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			s.expr(r, ctx)
		}
		esc.ret = true
	case *ast.BranchStmt:
		switch n.Tok {
		case token.BREAK:
			esc.brk = true
		case token.CONTINUE:
			esc.cont = true
		case token.GOTO:
			esc.ret = true // conservative: a goto can skip collectives
		}
	case *ast.ExprStmt:
		s.expr(n.X, ctx)
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			s.expr(r, ctx)
		}
		for _, l := range n.Lhs {
			s.expr(l, ctx)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v, ctx)
					}
				}
			}
		}
	case *ast.DeferStmt:
		s.expr(n.Call, ctx)
	case *ast.GoStmt:
		s.expr(n.Call, ctx)
	case *ast.SendStmt:
		s.expr(n.Chan, ctx)
		s.expr(n.Value, ctx)
	case *ast.IncDecStmt:
		s.expr(n.X, ctx)
	}
	return esc
}

// expr walks e reporting hazardous collective calls, descending into
// function literals as fresh sequences (they inherit the tainted context
// they are defined under, but not the diverged marker — a literal defined
// after an exit may be invoked from anywhere).
func (s *divergeScanner) expr(e ast.Expr, ctx divergeCtx) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			s.stmts(x.Body.List, divergeCtx{tainted: ctx.tainted})
			return false
		case *ast.CallExpr:
			if name, ok := collectiveCall(s.pass, x); ok {
				switch {
				case ctx.diverged:
					s.report(x.Pos(), "comm collective %s after a rank-dependent early exit: ranks that escaped never reach it, diverging the collective sequence", name)
				case ctx.tainted:
					s.report(x.Pos(), "comm collective %s under a rank-dependent condition: every rank must execute the same collective sequence (the runtime counterpart is a RunChecked deadlock or MismatchError)", name)
				}
			}
		}
		return true
	})
}

// reportAll flags every collective under n with the given hazard.
func (s *divergeScanner) reportAll(n ast.Node, hazard string) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if name, ok := collectiveCall(s.pass, call); ok {
				s.report(call.Pos(), "comm collective %s %s", name, hazard)
			}
		}
		return true
	})
}

func (s *divergeScanner) tainted(e ast.Expr) bool {
	return e != nil && exprTainted(s.pass.Info, s.taint, e)
}

func (s *divergeScanner) report(pos token.Pos, format string, args ...any) {
	if s.reported[pos] {
		return
	}
	s.reported[pos] = true
	s.pass.Report(pos, format, args...)
}
