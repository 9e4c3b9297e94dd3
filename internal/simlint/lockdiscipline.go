package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline polices the packages where simulation workers share
// mutex-guarded state — internal/metrics and internal/harness:
//
//   - Rule A (no slow or re-entrant work under a lock): while a mutex is
//     held, no channel send and no call through a function value (a user
//     callback or a stored closure, either of which can block or re-enter
//     the lock).
//   - Rule B (atomic or locked, never both): a field passed by address to a
//     sync/atomic function must not also be read or written plainly
//     anywhere in the package.
//
// The held-lock tracking is a linear, path-insensitive walk: Lock/RLock
// adds the receiver expression to the held set, Unlock/RUnlock removes it,
// defer Unlock keeps it held to the end of the scope, and nested control
// flow is analyzed with a copy of the held set. Function literals are not
// entered (they run later, usually after the unlock).
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no channel sends or callbacks under a mutex; no atomic/plain mixing",
	Run:  runLockDiscipline,
}

// lockDisciplinePkgs are the concurrency-bearing packages the analyzer
// applies to.
var lockDisciplinePkgs = []string{
	"internal/metrics",
	"internal/harness",
}

func runLockDiscipline(pass *Pass) {
	applies := false
	for _, p := range lockDisciplinePkgs {
		if hasPathSuffix(pass.Path, p) {
			applies = true
		}
	}
	if !applies {
		return
	}
	checkAtomicMixing(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkHeld(pass, fd.Body.List, map[string]token.Pos{})
		}
	}
}

// walkHeld processes a statement list tracking which mutexes are held.
// Nested control flow gets a copy of the held set, which keeps the walk
// conservative on the fall-through path (an unlock inside a branch does not
// clear the lock after the branch).
func walkHeld(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, locks, ok := mutexOp(pass, s.X); ok {
				if locks {
					held[key] = s.Pos()
				} else {
					delete(held, key)
				}
				continue
			}
			inspectUnderLock(pass, s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to scope end; other
			// deferred work runs at return, outside this walk's scope.
			continue
		case *ast.BlockStmt:
			walkHeld(pass, s.List, copyHeld(held))
		case *ast.IfStmt:
			if s.Init != nil {
				inspectUnderLock(pass, s.Init, held)
			}
			inspectUnderLock(pass, s.Cond, held)
			walkHeld(pass, s.Body.List, copyHeld(held))
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				walkHeld(pass, e.List, copyHeld(held))
			case *ast.IfStmt:
				walkHeld(pass, []ast.Stmt{e}, copyHeld(held))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				inspectUnderLock(pass, s.Init, held)
			}
			if s.Cond != nil {
				inspectUnderLock(pass, s.Cond, held)
			}
			if s.Post != nil {
				inspectUnderLock(pass, s.Post, held)
			}
			walkHeld(pass, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			inspectUnderLock(pass, s.X, held)
			walkHeld(pass, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			if s.Tag != nil {
				inspectUnderLock(pass, s.Tag, held)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					if cc.Comm != nil {
						inspectUnderLock(pass, cc.Comm, held)
					}
					walkHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			walkHeld(pass, []ast.Stmt{s.Stmt}, held)
		default:
			inspectUnderLock(pass, stmt, held)
		}
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	//simlint:allow determinism -- scratch set copy; never iterated for output
	for k, v := range held {
		out[k] = v
	}
	return out
}

// mutexOp recognizes m.Lock()/RLock() (locks=true) and
// m.Unlock()/RUnlock() (locks=false) where m is a sync.Mutex or
// sync.RWMutex (possibly embedded), returning the printed receiver
// expression as the held-set key.
func mutexOp(pass *Pass, expr ast.Expr) (key string, locks, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false, false
	}
	recvName := ""
	if n, isNamed := deref(sig.Recv().Type()).(*types.Named); isNamed {
		recvName = n.Obj().Name()
	}
	if recvName != "Mutex" && recvName != "RWMutex" {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	key = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, true, true
	case "Unlock", "RUnlock":
		return key, false, true
	}
	return "", false, false
}

// inspectUnderLock flags channel sends and dynamic calls in node when at
// least one mutex is held. Function literals are not entered.
func inspectUnderLock(pass *Pass, node ast.Node, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	heldName := anyHeld(held)
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while %s is held: a full channel blocks every other holder — send after unlocking", heldName)
		case *ast.CallExpr:
			checkCallUnderLock(pass, n, heldName)
		}
		return true
	})
}

// anyHeld picks a deterministic representative from the held set for the
// message (the lexically smallest expression).
func anyHeld(held map[string]token.Pos) string {
	best := ""
	//simlint:allow determinism -- reduced to the minimum key, order-independent
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// checkCallUnderLock flags a single call made with a lock held when it is a
// call through a function value.
func checkCallUnderLock(pass *Pass, call *ast.CallExpr, heldName string) {
	fun := ast.Unparen(call.Fun)
	// Type conversions are not calls.
	if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	if calleeFunc(pass, call) != nil {
		return // static call
	}
	// Dynamic call: through a variable, field, or parameter of func type.
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[f.Sel]
	default:
		// Computed callee (map index, call result): still a dynamic call.
		if t := pass.Info.TypeOf(fun); t != nil {
			if _, isSig := t.Underlying().(*types.Signature); isSig {
				pass.Reportf(call.Pos(), "call through a function value while %s is held: callbacks can block or re-enter the lock — call after unlocking", heldName)
			}
		}
		return
	}
	if v, isVar := obj.(*types.Var); isVar {
		if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
			pass.Reportf(call.Pos(), "call through function value %q while %s is held: callbacks can block or re-enter the lock — call after unlocking", types.ExprString(fun), heldName)
		}
	}
}

// checkAtomicMixing implements Rule B: fields passed by address to
// sync/atomic functions must not also be accessed plainly.
func checkAtomicMixing(pass *Pass) {
	atomicFields := make(map[*types.Var]bool)
	type span struct{ lo, hi token.Pos }
	var atomicArgSpans []span
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if v := addressedVar(pass, un.X); v != nil {
					atomicFields[v] = true
					atomicArgSpans = append(atomicArgSpans, span{un.Pos(), un.End()})
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	inAtomicArg := func(pos token.Pos) bool {
		for _, s := range atomicArgSpans {
			if pos >= s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var v *types.Var
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := pass.Info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
					v, _ = sel.Obj().(*types.Var)
				}
			case *ast.Ident:
				v, _ = pass.Info.Uses[n].(*types.Var)
			}
			if v == nil || !atomicFields[v] || inAtomicArg(n.Pos()) {
				return true
			}
			pass.Reportf(n.Pos(), "%s is accessed plainly but also through sync/atomic: pick one — plain access races with the atomic path", v.Name())
			return false
		})
	}
}

// addressedVar resolves &expr's operand to a struct field or variable.
func addressedVar(pass *Pass, expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel := pass.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
	case *ast.Ident:
		v, _ := pass.Info.Uses[e].(*types.Var)
		return v
	}
	return nil
}
