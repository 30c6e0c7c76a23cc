package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The analyzers in this file are self-contained reimplementations of the
// staticcheck/x-tools standard passes the repo wants in its single lint
// entrypoint (nilness, unusedresult, sortslice); vet's own copylocks pass
// runs in CI beside them. They are deliberately narrower than the
// originals — no SSA, no full dataflow — but cover the bug shapes that
// matter here, and ship with the same golden-test treatment as the
// repo-contract analyzers.

// Nilness flags uses of a pointer-shaped value inside the branch that just
// established it is nil: `if x == nil { ... x.f ... }` (and the else branch
// of `x != nil`) dereferences, calls, or indexes a value known to be nil.
var Nilness = &Analyzer{
	Name: "nilness",
	Doc:  "flag dereference/call/index of a value inside the branch proving it nil",
	Run:  runNilness,
}

func runNilness(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			if x, ok := ast.Unparen(bin.X).(*ast.Ident); ok && isNilExpr(pass, bin.Y) {
				id = x
			} else if y, ok := ast.Unparen(bin.Y).(*ast.Ident); ok && isNilExpr(pass, bin.X) {
				id = y
			}
			if id == nil || id.Name == "_" {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !nilable(obj.Type()) {
				return true
			}
			var nilBlock ast.Stmt
			switch bin.Op {
			case token.EQL:
				nilBlock = ifs.Body
			case token.NEQ:
				nilBlock = ifs.Else
			}
			if nilBlock == nil {
				return true
			}
			reportNilUses(pass, nilBlock, id.Name, obj)
			return true
		})
	}
	return nil
}

func isNilExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

func nilable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Map, *types.Slice, *types.Signature, *types.Chan:
		return true
	}
	return false
}

// reportNilUses walks the branch where obj is known nil and flags
// dereferencing uses. It stops at any assignment to the variable.
func reportNilUses(pass *Pass, block ast.Stmt, name string, obj types.Object) {
	reassigned := false
	usesObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == name && pass.TypesInfo.Uses[id] == obj
	}
	ast.Inspect(block, func(n ast.Node) bool {
		if reassigned {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
					reassigned = true
				}
			}
		case *ast.SelectorExpr:
			// x.f on a nil pointer to struct panics; on interfaces a method
			// call through nil panics too. Package selectors are filtered by
			// the object identity check.
			if usesObj(n.X) {
				pass.Reportf(n.Pos(), "%s is nil in this branch; selecting %s.%s will panic", name, name, n.Sel.Name)
			}
		case *ast.StarExpr:
			if usesObj(n.X) {
				pass.Reportf(n.Pos(), "%s is nil in this branch; dereferencing it will panic", name)
			}
		case *ast.IndexExpr:
			if usesObj(n.X) {
				if _, isMap := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); !isMap {
					pass.Reportf(n.Pos(), "%s is nil in this branch; indexing it will panic", name)
				}
			}
		case *ast.CallExpr:
			if usesObj(n.Fun) {
				pass.Reportf(n.Pos(), "%s is nil in this branch; calling it will panic", name)
			}
		}
		return true
	})
}

// UnusedResult flags calls whose only effect is their return value when that
// value is discarded: pure stdlib helpers (fmt.Sprintf, errors.New,
// strings transforms, sort predicates) called as bare statements.
var UnusedResult = &Analyzer{
	Name: "unusedresult",
	Doc:  "flag discarded results of side-effect-free calls",
	Run:  runUnusedResult,
}

// pureFuncs: package path -> function names whose result is the whole point.
var pureFuncs = map[string]map[string]bool{
	"fmt": {"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true},
	"errors": {
		"New": true, "Is": true, "As": true, "Unwrap": true, "Join": true,
	},
	"strings": {
		"ToUpper": true, "ToLower": true, "TrimSpace": true, "Trim": true,
		"TrimPrefix": true, "TrimSuffix": true, "Repeat": true, "Replace": true,
		"ReplaceAll": true, "Join": true, "Split": true, "Fields": true,
		"Contains": true, "HasPrefix": true, "HasSuffix": true, "Index": true,
	},
	"sort":                 {"SliceIsSorted": true, "IsSorted": true, "SearchInts": true, "Search": true},
	"repro/internal/sweep": {"IsSortedByXL": true, "Pairs": true, "NestedLoopPairs": true},
}

func runUnusedResult(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Signature().Recv() != nil {
				return true
			}
			if set := pureFuncs[fn.Pkg().Path()]; set != nil && set[fn.Name()] {
				pass.Reportf(stmt.Pos(), "result of %s.%s is discarded: the call has no side effects", fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
	return nil
}

// SortSlice flags sort.Slice/SliceStable/SliceIsSorted whose first argument
// is not a slice — at runtime that panics; statically it is always a bug.
var SortSlice = &Analyzer{
	Name: "sortslice",
	Doc:  "flag sort.Slice* calls whose first argument is not a slice",
	Run:  runSortSlice,
}

var sortSliceFuncs = map[string]bool{"Slice": true, "SliceStable": true, "SliceIsSorted": true}

func runSortSlice(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sort" || !sortSliceFuncs[fn.Name()] || len(call.Args) == 0 {
				return true
			}
			t := pass.TypesInfo.TypeOf(call.Args[0])
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
			case *types.Interface:
				// a statically-typed any could hold a slice; stay quiet
			default:
				pass.Reportf(call.Args[0].Pos(), "sort.%s expects a slice, got %s: this panics at runtime", fn.Name(), t.String())
			}
			return true
		})
	}
	return nil
}

// All is the complete repolint suite in reporting order: the repo-contract
// analyzers first, then the standard passes.
var All = []*Analyzer{
	Determinism,
	Accounting,
	PinUnpin,
	GuardedBy,
	LatchedErr,
	HotPath,
	Nilness,
	UnusedResult,
	SortSlice,
}
