// Package lockheld encodes the repo's PR-1 locking discipline: no
// sync.Mutex/RWMutex (nor a lock entered through a callback-style
// Locked/RLocked compound op) may be held across an operation that can block
// on the network or the scheduler. Blocking while holding a lock is exactly
// how one slow provider round-trip serializes a whole walker fleet — the
// failure mode the sharded client and overlay were built to make impossible.
//
// An operation counts as blocking when it is:
//
//   - a channel send, a channel receive (<-ch, including <-ctx.Done()), a
//     range over a channel, or a select with no default clause;
//   - a call whose first parameter is a context.Context (the repo-wide
//     signature of "this can wait on a round-trip": Backend.Fetch,
//     Service.QueryContext, Client.QueryBatchContext, ...);
//   - a call to a method named Fetch, Query, QueryUser, or QueryBatch (the
//     context-less convenience spellings of the same round-trips);
//   - sync.WaitGroup.Wait, sync.Cond.Wait, or time.Sleep.
//
// Taking another mutex while one is held is deliberately NOT flagged: the
// client's documented stripe-then-ledger lock order depends on it, and lock
// ordering is a different invariant from lock-across-latency.
//
// The analysis is a per-function, straight-line approximation: a lock whose
// Unlock is deferred is treated as held to the end of the function, branch
// bodies are scanned with a copy of the held set, and function literals are
// skipped (they run later) — except a literal passed to a Locked/RLocked
// compound op, which runs under that shard lock and is scanned accordingly.
// Deliberate, documented exceptions take a
// //rewirelint:allow lockheld <reason> annotation.
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"

	"rewire/tools/rewirelint/analysis"
	"rewire/tools/rewirelint/internal/lintutil"
)

// Analyzer reports blocking operations performed while a lock is held.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "forbid holding a sync.Mutex/RWMutex (or a store shard lock) across channel ops, selects, or provider round-trips",
	Run:  run,
}

// blockingNames are context-less method spellings that still reach the
// network (their Context variants are caught by the ctx-first-param rule).
var blockingNames = map[string]bool{
	"Fetch":      true,
	"Query":      true,
	"QueryUser":  true,
	"QueryBatch": true,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.scanStmts(fd.Body.List, nil)
			}
		}
	}
	return nil
}

// heldLock is one lock the current control path is holding.
type heldLock struct {
	name string // rendered lock expression, e.g. "o.mu"
}

type checker struct {
	pass *analysis.Pass
}

// scanStmts walks one statement list, threading the held-lock set through
// Lock/Unlock pairs and checking everything else against it. It returns the
// held set as of the end of the list (deferred unlocks never pop).
func (c *checker) scanStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, stmt := range stmts {
		held = c.scanStmt(stmt, held)
	}
	return held
}

func (c *checker) scanStmt(stmt ast.Stmt, held []heldLock) []heldLock {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, op := c.lockOp(call); op != "" {
				switch op {
				case "Lock", "RLock":
					return append(held, heldLock{name: name})
				case "Unlock", "RUnlock":
					return pop(held, name)
				}
			}
		}
		c.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() extends the hold to the end of the function;
		// any other deferred call runs at return, outside this scan.
		return held
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's critical
		// section; its body is its own function for this analysis.
		c.checkExprs(s.Call.Args, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			c.pass.Reportf(s.Pos(), "channel send while %s is held; a blocked receiver stalls every goroutine waiting on the lock", top(held))
		}
		c.checkExpr(s.Value, held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if len(held) > 0 && !hasDefault {
			c.pass.Reportf(s.Pos(), "blocking select while %s is held; add a default case or release the lock first", top(held))
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				c.scanStmts(cc.Body, clone(held))
			}
		}
	case *ast.BlockStmt:
		return c.scanStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = c.scanStmt(s.Init, held)
		}
		c.checkExpr(s.Cond, held)
		c.scanStmts(s.Body.List, clone(held))
		if s.Else != nil {
			c.scanStmt(s.Else, clone(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = c.scanStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond, held)
		}
		c.scanStmts(s.Body.List, clone(held))
	case *ast.RangeStmt:
		if len(held) > 0 {
			if t, ok := c.pass.TypesInfo.Types[s.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					c.pass.Reportf(s.Pos(), "range over a channel while %s is held", top(held))
				}
			}
		}
		c.checkExpr(s.X, held)
		c.scanStmts(s.Body.List, clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = c.scanStmt(s.Init, held)
		}
		if s.Tag != nil {
			c.checkExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.checkExprs(cc.List, held)
				c.scanStmts(cc.Body, clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.scanStmts(cc.Body, clone(held))
			}
		}
	case *ast.LabeledStmt:
		return c.scanStmt(s.Stmt, held)
	case *ast.AssignStmt:
		c.checkExprs(s.Rhs, held)
		c.checkExprs(s.Lhs, held)
	case *ast.ReturnStmt:
		c.checkExprs(s.Results, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.checkExprs(vs.Values, held)
				}
			}
		}
	case *ast.IncDecStmt:
		c.checkExpr(s.X, held)
	}
	return held
}

// checkExprs applies checkExpr to each expression.
func (c *checker) checkExprs(exprs []ast.Expr, held []heldLock) {
	for _, e := range exprs {
		c.checkExpr(e, held)
	}
}

// checkExpr flags blocking operations inside e. Function literals are not
// descended into (they execute later) unless they are the callback of a
// Locked/RLocked compound op, which runs them under the shard lock.
func (c *checker) checkExpr(e ast.Expr, held []heldLock) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && len(held) > 0 {
				c.pass.Reportf(x.Pos(), "channel receive while %s is held; the sender may need the lock you are holding", top(held))
			}
		case *ast.CallExpr:
			c.checkCall(x, held)
			// Locked/RLocked compound ops run their callback under the
			// shard's lock: scan the body with that lock pushed.
			if name := lockedCallback(x); name != "" {
				if lit, ok := x.Args[len(x.Args)-1].(*ast.FuncLit); ok {
					c.scanStmts(lit.Body.List, append(clone(held), heldLock{name: name}))
				}
			}
		}
		return true
	})
}

// checkCall flags calls that can block while a lock is held.
func (c *checker) checkCall(call *ast.CallExpr, held []heldLock) {
	if len(held) == 0 {
		return
	}
	fn := lintutil.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	switch {
	case lintutil.FirstParamIsContext(sig):
		c.pass.Reportf(call.Pos(), "%s takes a context (it can wait on a round-trip) but %s is held across the call", fn.Name(), top(held))
	case sig.Recv() != nil && blockingNames[fn.Name()]:
		c.pass.Reportf(call.Pos(), "%s can reach the provider but %s is held across the call", fn.Name(), top(held))
	case isMethodOf(fn, "sync", "Wait") || lintutil.IsPkgFunc(fn, "time", "Sleep"):
		c.pass.Reportf(call.Pos(), "%s blocks on the scheduler but %s is held across the call", fn.Name(), top(held))
	}
}

// lockOp classifies call as a sync lock operation, returning the rendered
// lock expression and the method name ("" when it is not one).
func (c *checker) lockOp(call *ast.CallExpr) (name, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn := lintutil.Callee(c.pass.TypesInfo, call)
	if fn == nil || !isMethodOf(fn, "sync", "Lock", "RLock", "Unlock", "RUnlock") {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}

// lockedCallback recognizes calls to methods named Locked/RLocked whose last
// argument is a function literal — the callback compound-op shape — and
// returns a display name for the shard lock they hold ("" otherwise).
func lockedCallback(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return ""
	}
	if _, ok := call.Args[len(call.Args)-1].(*ast.FuncLit); !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Locked", "RLocked":
		return types.ExprString(sel.X) + "'s shard lock"
	}
	return ""
}

// isMethodOf reports whether fn is a method named one of names declared on a
// type in package pkgPath.
func isMethodOf(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

func pop(held []heldLock, name string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].name == name {
			return append(clone(held[:i]), held[i+1:]...)
		}
	}
	return held
}

func top(held []heldLock) string { return held[len(held)-1].name }

func clone(held []heldLock) []heldLock {
	out := make([]heldLock, len(held))
	copy(out, held)
	return out
}
