// Package lint holds vbilint's analyzers and the suite that scopes them
// to the packages whose invariants they guard (see Suite and Scopes).
//
// The contract they machine-check is the one every layer of this repo is
// built on: identical jobs produce byte-identical results everywhere —
// serial, parallel, distributed, cache-resumed — and the simulated
// machine is deterministic in its inputs alone.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"vbi/internal/lint/analysis"
)

// MapOrder flags `range` over a map unless the loop is provably
// order-insensitive. Go randomizes map iteration order per iteration, so
// any order-sensitive use leaks nondeterminism straight into results —
// the exact class behind the three reproducibility bugs PR 1 had to
// hand-hunt (buddy free-block pick, MTL remap order, TLB tie-break).
//
// Two shapes are recognized as order-insensitive:
//
//   - collect-then-sort: the body is exactly `s = append(s, ...)` and the
//     statement immediately after the loop sorts s;
//   - commutative accumulation: every statement is a commutative update
//     (x++, x--, numeric/bitwise compound assignment, m[k] = ... keyed by
//     the loop key, delete(m, k)), optionally guarded by an `if` whose
//     condition reads nothing the body writes.
//
// Anything else needs sorted keys — or an explicit
// `//vbi:allow maporder <reason>`.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags range over a map unless the loop is provably order-insensitive",
	Run:  runMapOrder,
}

func runMapOrder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			body, ok := blockOf(n)
			if !ok {
				return true
			}
			for i, stmt := range body {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				var next ast.Stmt
				if i+1 < len(body) {
					next = body[i+1]
				}
				if mapRangeOrderInsensitive(pass, rs, next) {
					continue
				}
				pass.Reportf(rs.For,
					"range over map %s: iteration order is nondeterministic; sort the keys first, or justify with //vbi:allow maporder <reason>",
					exprString(pass.Fset, rs.X))
			}
			return true
		})
	}
	return nil
}

// blockOf returns the statement list of any node that holds one, so
// range statements are always seen together with their following
// statement (needed for the collect-then-sort idiom).
func blockOf(n ast.Node) ([]ast.Stmt, bool) {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List, true
	case *ast.CaseClause:
		return n.Body, true
	case *ast.CommClause:
		return n.Body, true
	}
	return nil, false
}

func mapRangeOrderInsensitive(pass *analysis.Pass, rs *ast.RangeStmt, next ast.Stmt) bool {
	if isCollectThenSort(pass, rs, next) {
		return true
	}
	writes := writtenIdents(pass, rs.Body)
	// classes records which operation class each accumulator has seen:
	// updates within one class commute with each other (sums with sums,
	// masks with masks), but not across classes (x += a; x *= b applied
	// per entry depends on entry order).
	classes := make(map[string]opClass)
	for _, stmt := range rs.Body.List {
		if !commutativeStmt(pass, rs, stmt, writes, classes) {
			return false
		}
	}
	return true
}

// opClass groups accumulator updates that commute with each other.
type opClass int

const (
	classAdditive opClass = iota + 1 // += -= ++ --
	classMul                         // *= <<=
	classDiv                         // /= >>= (constant operand only)
	classOr                          // |=
	classAnd                         // &= &^=
	classXor                         // ^=
)

// classOf maps an assignment operator to its commuting class; ok is
// false for operators with no order-insensitive reading (%=, string +).
func classOf(tok token.Token) (opClass, bool) {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return classAdditive, true
	case token.MUL_ASSIGN, token.SHL_ASSIGN:
		return classMul, true
	case token.QUO_ASSIGN, token.SHR_ASSIGN:
		return classDiv, true
	case token.OR_ASSIGN:
		return classOr, true
	case token.AND_ASSIGN, token.AND_NOT_ASSIGN:
		return classAnd, true
	case token.XOR_ASSIGN:
		return classXor, true
	}
	return 0, false
}

// recordClass registers an accumulator update, failing on a cross-class
// mix for the same target expression.
func recordClass(pass *analysis.Pass, classes map[string]opClass, target ast.Expr, c opClass) bool {
	key := exprString(pass.Fset, target)
	if prev, ok := classes[key]; ok && prev != c {
		return false
	}
	classes[key] = c
	return true
}

// isCollectThenSort matches
//
//	for k := range m { s = append(s, ...) }
//	sort.Xxx(s...)            // or slices.Sort(s), sort.Slice(s, ...)
//
// where the sort is the statement immediately following the loop.
func isCollectThenSort(pass *analysis.Pass, rs *ast.RangeStmt, next ast.Stmt) bool {
	if len(rs.Body.List) != 1 || next == nil {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dest, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) < 2 {
		return false
	}
	if arg, ok := call.Args[0].(*ast.Ident); !ok || objOf(pass, arg) != objOf(pass, dest) {
		return false
	}
	// The next statement must be a sort.*/slices.Sort* call taking dest.
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	sortCall, ok := es.X.(*ast.CallExpr)
	if !ok || len(sortCall.Args) == 0 {
		return false
	}
	sel, ok := sortCall.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := pkgOf(pass, sel.X)
	if !ok || (pkg != "sort" && pkg != "slices") {
		return false
	}
	first, ok := sortCall.Args[0].(*ast.Ident)
	return ok && objOf(pass, first) == objOf(pass, dest)
}

// commutativeStmt reports whether one statement's effect is independent
// of the order map entries are visited in.
func commutativeStmt(pass *analysis.Pass, rs *ast.RangeStmt, stmt ast.Stmt, writes map[types.Object]bool, classes map[string]opClass) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return callFree(pass, s.X) && isInteger(pass.TypesInfo.TypeOf(s.X)) &&
			recordClass(pass, classes, s.X, classAdditive)
	case *ast.AssignStmt:
		return commutativeAssign(pass, rs, s, classes)
	case *ast.ExprStmt:
		// delete(m, k) with the loop key removes a distinct entry per
		// visit, whatever the order.
		call, ok := s.X.(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "delete") || len(call.Args) != 2 {
			return false
		}
		return isLoopVar(pass, rs.Key, call.Args[1])
	case *ast.IfStmt:
		// A guard is safe when its condition cannot observe anything the
		// body accumulates: no calls, and no reads of written variables.
		if s.Init != nil || s.Else != nil {
			return false
		}
		if !callFree(pass, s.Cond) || readsAny(pass, s.Cond, writes) {
			return false
		}
		for _, inner := range s.Body.List {
			if !commutativeStmt(pass, rs, inner, writes, classes) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	}
	return false
}

func commutativeAssign(pass *analysis.Pass, rs *ast.RangeStmt, s *ast.AssignStmt, classes map[string]opClass) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	if !callFree(pass, s.Rhs[0]) {
		return false
	}
	if s.Tok == token.ASSIGN {
		// m[k] = v keyed by the loop key writes a distinct cell per visit.
		idx, ok := s.Lhs[0].(*ast.IndexExpr)
		if !ok {
			return false
		}
		t := pass.TypesInfo.TypeOf(idx.X)
		if t == nil {
			return false
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return false
		}
		return isLoopVar(pass, rs.Key, idx.Index) && callFree(pass, idx.X)
	}
	class, ok := classOf(s.Tok)
	if !ok {
		return false
	}
	// Only integer accumulation commutes: float += is the classic
	// nondeterministic sum (rounding depends on addition order), and
	// string += depends on order outright.
	t := pass.TypesInfo.TypeOf(s.Lhs[0])
	if t == nil || !isInteger(t) || !callFree(pass, s.Lhs[0]) {
		return false
	}
	// Division and shifts commute only when every visit applies the same
	// constant operand.
	if class == classDiv && pass.TypesInfo.Types[s.Rhs[0]].Value == nil {
		return false
	}
	return recordClass(pass, classes, s.Lhs[0], class)
}

// writtenIdents collects every object assigned or inc/dec'd anywhere in
// the loop body (used to keep `if` guards from observing accumulation).
func writtenIdents(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	writes := make(map[types.Object]bool)
	record := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := objOf(pass, id); obj != nil {
				writes[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				record(l)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
	return writes
}

func readsAny(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[objOf(pass, id)] {
			found = true
		}
		return !found
	})
	return found
}

// callFree reports whether the expression contains no function calls
// other than the pure builtins len, cap, min and max.
func callFree(pass *analysis.Pass, e ast.Expr) bool {
	if e == nil {
		return true
	}
	pure := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range []string{"len", "cap", "min", "max"} {
			if isBuiltin(pass, call.Fun, name) {
				return true
			}
		}
		pure = true // found an impure call
		return false
	})
	return !pure
}

func isLoopVar(pass *analysis.Pass, loopVar, e ast.Expr) bool {
	lid, ok := loopVar.(*ast.Ident)
	if !ok || lid.Name == "_" {
		return false
	}
	id, ok := e.(*ast.Ident)
	return ok && objOf(pass, id) != nil && objOf(pass, id) == objOf(pass, lid)
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := objOf(pass, id).(*types.Builtin)
	return isBuiltin
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// pkgOf resolves an expression to the package it names, if any.
func pkgOf(pass *analysis.Pass, e ast.Expr) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := objOf(pass, id).(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
