// Package lockcheck enforces the lock discipline of the lock-bearing
// stores (match.Store, match.DurableStore, partition.Store) and the WAL
// writer. Two checks, both on non-test code:
//
//  1. No copying of values whose type contains a sync.Mutex or
//     sync.RWMutex (match.Store, wal.Writer):
//     by-value parameters, results and receivers, assignments from
//     existing values, by-value range variables, and lock-carrying call
//     arguments are all flagged. A fresh composite literal is fine — it
//     is initialization, not a copy of a possibly-held lock.
//
//  2. Every Lock/RLock must reach an Unlock/RUnlock of the same mutex
//     expression on all paths of the same function: a return (or falling
//     off the end) while a lock is held and no defer releases it is
//     flagged. The analysis is deliberately conservative — branch joins
//     intersect held-sets, loop bodies do not leak state — so it only
//     reports leaks it can prove on some path. Helpers that hand a held
//     lock to their caller on purpose carry //vetkit:allow lockdiscipline.
package lockcheck

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "no copying of mutex-bearing structs; every Lock pairs with an Unlock on all return paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkSignature(pass, n.Recv, n.Type)
				if n.Body != nil {
					(&pairing{pass: pass, fname: n.Name.Name}).check(n.Body)
				}
			case *ast.FuncLit:
				checkSignature(pass, nil, n.Type)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkCopy(pass, rhs, "assignment")
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					// := range values are Defs, = range values are Types.
					t := pass.TypesInfo.Types[n.Value].Type
					if t == nil {
						if id, ok := n.Value.(*ast.Ident); ok {
							if obj := pass.TypesInfo.Defs[id]; obj != nil {
								t = obj.Type()
							}
						}
					}
					if path := lockPath(t); path != "" {
						pass.Reportf(n.Value.Pos(), "range value copies lock: %s", path)
					}
				}
			case *ast.CallExpr:
				if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
					return true // conversion, operand type unchanged
				}
				for _, arg := range n.Args {
					checkCopy(pass, arg, "call argument")
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					checkCopy(pass, r, "return value")
				}
			}
			return true
		})
	}
	return nil
}

// checkSignature flags by-value lock-bearing receivers, params and results.
func checkSignature(pass *analysis.Pass, recv *ast.FieldList, ft *ast.FuncType) {
	flag := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			t := pass.TypesInfo.Types[f.Type].Type
			if t == nil {
				continue
			}
			if path := lockPath(t); path != "" {
				pass.Reportf(f.Type.Pos(), "%s passes lock by value: %s", what, path)
			}
		}
	}
	flag(recv, "receiver")
	flag(ft.Params, "parameter")
	flag(ft.Results, "result")
}

// checkCopy flags expressions that copy an existing lock-bearing value:
// reads of variables, fields, indexes and dereferences. Composite literals
// (fresh values) and address-taking are not copies.
func checkCopy(pass *analysis.Pass, e ast.Expr, what string) {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.ParenExpr:
	default:
		return
	}
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return
	}
	if path := lockPath(t); path != "" {
		pass.Reportf(e.Pos(), "%s copies lock: %s", what, path)
	}
}

// lockPath returns a human-readable path to a mutex inside t ("" when t
// carries none). Pointers, slices, maps and channels stop the walk: they
// share, not copy.
func lockPath(t types.Type) string {
	if t == nil {
		return ""
	}
	return lockPathRec(t, 0)
}

func lockPathRec(t types.Type, depth int) string {
	if depth > 10 {
		return ""
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return "sync." + obj.Name()
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if sub := lockPathRec(f.Type(), depth+1); sub != "" {
				return f.Name() + "." + sub
			}
		}
	case *types.Array:
		if sub := lockPathRec(u.Elem(), depth+1); sub != "" {
			return "[i]." + sub
		}
	}
	return ""
}

// --- Lock/Unlock pairing ---

// pairing simulates one function body tracking which mutex expressions are
// locked. Keys are the printed receiver expression plus the lock mode, so
// rs.mu.RLock()/rs.mu.RUnlock() pair and s.mu/other.mu stay distinct.
type pairing struct {
	pass  *analysis.Pass
	fname string
}

type lockState struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func (st lockState) clone() lockState {
	c := lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
	for k, v := range st.held {
		c.held[k] = v
	}
	for k := range st.deferred {
		c.deferred[k] = true
	}
	return c
}

func (p *pairing) check(body *ast.BlockStmt) {
	st := lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
	st, terminated := p.stmts(body.List, st)
	if !terminated {
		p.reportHeld(st, body.End(), "function end")
	}
}

func (p *pairing) reportHeld(st lockState, pos token.Pos, where string) {
	for key, lpos := range st.held {
		if st.deferred[key] {
			continue
		}
		p.pass.Reportf(pos, "%s: %s still held at %s (locked at %s) with no unlock on this path",
			p.fname, key, where, p.pass.Fset.Position(lpos))
	}
}

func (p *pairing) stmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, s := range list {
		var terminated bool
		st, terminated = p.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (p *pairing) stmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		p.applyCalls(s.X, &st)
		return st, false
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			p.applyCalls(r, &st)
		}
		return st, false
	case *ast.DeferStmt:
		p.applyDefer(s.Call, &st)
		return st, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			p.applyCalls(r, &st)
		}
		p.reportHeld(st, s.Pos(), "return")
		return st, true
	case *ast.BlockStmt:
		return p.stmts(s.List, st)
	case *ast.LabeledStmt:
		return p.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = p.stmt(s.Init, st)
		}
		p.applyCalls(s.Cond, &st)
		thenSt, thenTerm := p.stmts(s.Body.List, st.clone())
		elseSt, elseTerm := st.clone(), false
		if s.Else != nil {
			elseSt, elseTerm = p.stmt(s.Else, st.clone())
		}
		return mergeStates(
			pathOut{thenSt, thenTerm},
			pathOut{elseSt, elseTerm},
		)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = p.stmt(s.Init, st)
		}
		if s.Cond != nil {
			p.applyCalls(s.Cond, &st)
		}
		p.stmts(s.Body.List, st.clone()) // reports inside only
		return st, false
	case *ast.RangeStmt:
		p.applyCalls(s.X, &st)
		p.stmts(s.Body.List, st.clone())
		return st, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = p.stmt(s.Init, st)
		}
		if s.Tag != nil {
			p.applyCalls(s.Tag, &st)
		}
		return p.clauses(s.Body, st, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = p.stmt(s.Init, st)
		}
		return p.clauses(s.Body, st, false)
	case *ast.SelectStmt:
		return p.clauses(s.Body, st, true)
	case *ast.BranchStmt:
		// goto/break/continue leave this statement list; stop tracking the
		// remainder of the list rather than guessing the jump target.
		return st, true
	case *ast.GoStmt:
		// A goroutine's locking is its own function's business; calls made
		// to *start* it do not change this function's state.
		return st, false
	default:
		return st, false
	}
}

type pathOut struct {
	st         lockState
	terminated bool
}

// mergeStates intersects the held-sets of branches that can fall through
// (a lock is "held after the join" only when every surviving branch holds
// it — the conservative choice that cannot false-positive) and unions the
// deferred sets.
func mergeStates(outs ...pathOut) (lockState, bool) {
	merged := lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
	live := []lockState{}
	for _, o := range outs {
		if !o.terminated {
			live = append(live, o.st)
		}
		for k := range o.st.deferred {
			merged.deferred[k] = true
		}
	}
	if len(live) == 0 {
		return merged, true
	}
	for key, pos := range live[0].held {
		inAll := true
		for _, st := range live[1:] {
			if _, ok := st.held[key]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			merged.held[key] = pos
		}
	}
	return merged, false
}

// clauses runs switch/select clauses from the entry state. A switch with
// no default may skip every clause, so the entry state joins the merge;
// a select blocks until some clause runs, so it does not.
func (p *pairing) clauses(body *ast.BlockStmt, st lockState, isSelect bool) (lockState, bool) {
	outs := []pathOut{}
	hasDefault := false
	for _, cl := range body.List {
		clauseSt := st.clone()
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				clauseSt, _ = p.stmt(cl.Comm, clauseSt)
			}
			stmts = cl.Body
		}
		out, term := p.stmts(stmts, clauseSt)
		outs = append(outs, pathOut{out, term})
	}
	if !hasDefault && !isSelect {
		outs = append(outs, pathOut{st, false})
	}
	if len(outs) == 0 {
		return st, false
	}
	return mergeStates(outs...)
}

// applyCalls scans an expression for Lock/Unlock calls in syntactic order.
// Function literals inside are skipped: their body runs elsewhere.
func (p *pairing) applyCalls(e ast.Expr, st *lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op := p.lockOp(call)
		switch op {
		case opLock:
			st.held[key] = call.Pos()
		case opUnlock:
			delete(st.held, key)
		}
		return true
	})
}

// applyDefer treats `defer x.Unlock()` (and unlocks inside a deferred
// closure) as releasing on every path out of the function.
func (p *pairing) applyDefer(call *ast.CallExpr, st *lockState) {
	mark := func(c *ast.CallExpr) {
		if key, op := p.lockOp(c); op == opUnlock {
			st.deferred[key] = true
			delete(st.held, key)
		}
	}
	mark(call)
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				mark(c)
			}
			return true
		})
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex/RWMutex, returning a key naming the mutex expression + mode.
func (p *pairing) lockOp(call *ast.CallExpr) (string, lockOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn, _ := p.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", opNone
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	if recv != "Mutex" && recv != "RWMutex" {
		return "", opNone
	}
	var mode string
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock":
		mode, kind = "W", opLock
	case "Unlock":
		mode, kind = "W", opUnlock
	case "RLock":
		mode, kind = "R", opLock
	case "RUnlock":
		mode, kind = "R", opUnlock
	default:
		return "", opNone
	}
	return exprString(sel.X) + "/" + mode, kind
}

func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
