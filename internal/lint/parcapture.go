package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The parcapture analyzer guards the contract internal/par is built on:
// closures handed to par.Map/MapChunks/ForEach run concurrently,
// and the *only* deterministic ways out of them are the return value
// (committed by slot) and writes to disjoint, index-addressed slots. A
// closure that instead mutates a captured variable — `sum += x`,
// `results = append(results, y)`, `m[k] = v` — produces output that
// depends on goroutine interleaving: exactly the bug class that breaks
// the repo's byte-identical serial-vs-parallel guarantee, and the race
// detector only catches it when the schedule cooperates.
//
// Flagged inside a closure argument to a par entry point:
//
//   - assignments and ++/-- whose target is declared outside the
//     closure, unless the target is a slice/array element whose index
//     mentions a closure-local variable (the per-slot idiom
//     `out[i] = f(i)` is disjoint by construction);
//   - writes into captured maps, regardless of key — concurrent map
//     writes fault even when keys are disjoint.
//
// A closure that takes a lock (any method call named Lock/RLock inside
// it) is skipped: it is synchronized, and whether its commit order is
// deterministic is a design question for its author, recorded with a
// //lint:ignore when the analyzer is wrong about it.

func init() {
	Register(&Analyzer{
		Name: "parcapture",
		Doc:  "unsynchronized writes to captured variables in closures passed to par.Map/MapChunks/ForEach",
		Run:  runParCapture,
	})
}

// parEntryPoints are the internal/par functions that run their closure
// arguments concurrently.
var parEntryPoints = map[string]bool{
	"Map": true, "MapChunks": true, "ForEach": true,
}

// isParPackage matches the real package and fixture stand-ins.
func isParPackage(path string) bool {
	return path == "dataai/internal/par" || strings.HasSuffix(path, "internal/par")
}

func runParCapture(pass *Pass) {
	p := pass.Pkg
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := p.calleeFunc(call)
			if callee == nil || callee.Pkg() == nil ||
				!isParPackage(callee.Pkg().Path()) || !parEntryPoints[callee.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					checkParClosure(pass, callee.Name(), lit)
				}
			}
			return true
		})
	}
}

func checkParClosure(pass *Pass, entry string, lit *ast.FuncLit) {
	p := pass.Pkg
	if closureTakesLock(p, lit) {
		return
	}
	declaredInside := func(obj types.Object) bool {
		return obj != nil && lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End()
	}
	report := func(pos ast.Node, name string) {
		pass.Reportf(pos.Pos(),
			"closure passed to par.%s writes captured %q without synchronization: result depends on goroutine interleaving and breaks byte-identical parallel output; commit through the return value or a per-index slot",
			entry, name)
	}
	checkTarget := func(stmt ast.Node, lhs ast.Expr) {
		root := rootIdent(lhs)
		if root == nil || root.Name == "_" {
			return
		}
		obj := p.Info.Uses[root]
		if obj == nil {
			obj = p.Info.Defs[root]
		}
		if obj == nil || declaredInside(obj) {
			return
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if base := p.typeOf(idx.X); base != nil {
				switch base.Underlying().(type) {
				case *types.Map:
					report(stmt, root.Name)
					return
				case *types.Slice, *types.Array, *types.Pointer:
					if indexUsesLocal(p, idx.Index, declaredInside) {
						return // disjoint per-slot write
					}
				}
			}
		}
		report(stmt, root.Name)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				checkTarget(stmt, lhs)
			}
		case *ast.IncDecStmt:
			checkTarget(stmt, stmt.X)
		}
		return true
	})
}

// closureTakesLock reports whether the closure body calls a Lock/RLock
// method — the author synchronized, so interleaving is their design.
func closureTakesLock(p *Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
			found = true
			return false
		}
		return true
	})
	return found
}

// indexUsesLocal reports whether the index expression mentions any
// object declared inside the closure (a parameter or loop variable) —
// the signature of the disjoint-slot idiom.
func indexUsesLocal(p *Package, index ast.Expr, declaredInside func(types.Object) bool) bool {
	found := false
	ast.Inspect(index, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; declaredInside(obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
