package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The obsguard analyzer enforces the observability layer's zero-cost-off
// contract. internal/obs promises that a nil *Tracer, *Registry, or
// *Metric no-ops every method, which is what lets the serving and LLM
// call paths stay instrumented unconditionally — no `if tracer != nil`
// noise at ten call sites per request, no overhead when tracing is off.
// One exported method that forgets the guard turns every untraced run
// into a nil-pointer crash, found only on the first untraced execution
// of that path.
//
// The analyzer applies to packages under internal/obs. An exported
// method with a pointer receiver must be nil-safe, which it is when
// either:
//
//   - its first statement is the guard `if recv == nil { ... }`, or
//   - every use of the receiver in its body is a call to another
//     nil-safe method of the same package (delegation, e.g.
//     Counter → metric), computed to a fixpoint so chains work.
//
// Methods that never touch their receiver are trivially safe.
// Unexported methods are not required to guard (they run behind an
// exported guard, often under its lock) but count as safe delegation
// targets when they do.
//
// The finding carries a suggested fix inserting the guard with
// zero-value returns when those are mechanically derivable.

func init() {
	Register(&Analyzer{
		Name: "obsguard",
		Doc:  "exported pointer-receiver methods in internal/obs missing the nil-receiver guard",
		Run:  runObsGuard,
	})
}

// obsGuardScope reports whether the package's methods must be nil-safe.
func obsGuardScope(importPath string) bool {
	return strings.Contains(importPath, "internal/obs")
}

// obsMethod is one pointer-receiver method declaration under analysis.
type obsMethod struct {
	decl     *ast.FuncDecl
	recvName string
	recvObj  types.Object
	safe     bool
}

func runObsGuard(pass *Pass) {
	p := pass.Pkg
	if !obsGuardScope(p.ImportPath) {
		return
	}

	// Collect every pointer-receiver method on package-local types.
	methods := map[*types.Func]*obsMethod{}
	var order []*obsMethod
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			if _, isPtr := fd.Recv.List[0].Type.(*ast.StarExpr); !isPtr {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			m := &obsMethod{decl: fd}
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				m.recvName = names[0].Name
				m.recvObj = p.Info.Defs[names[0]]
			}
			methods[fn] = m
			order = append(order, m)
		}
	}

	// Pass 1: directly safe — leading guard, or receiver never used.
	for _, m := range order {
		if hasNilGuard(m) || m.recvObj == nil || !p.mentionsObject(m.decl.Body, m.recvObj) {
			m.safe = true
		}
	}
	// Fixpoint: safe by delegation to safe same-package methods.
	for changed := true; changed; {
		changed = false
		for _, m := range order {
			if !m.safe && delegatesSafely(p, m, methods) {
				m.safe = true
				changed = true
			}
		}
	}

	for _, m := range order {
		if m.safe || !m.decl.Name.IsExported() {
			continue
		}
		recvType := "receiver"
		if t := p.typeOf(m.decl.Recv.List[0].Type); t != nil {
			recvType = t.String()
			if i := strings.LastIndex(recvType, "."); i >= 0 {
				recvType = "*" + recvType[i+1:]
			}
		}
		msg := fmt.Sprintf("exported method (%s).%s is not nil-safe: add the leading `if %s == nil` guard that keeps disabled instrumentation zero-cost",
			recvType, m.decl.Name.Name, m.recvName)
		if fix, ok := nilGuardFix(p, m); ok {
			pass.ReportFix(m.decl.Pos(), fix, "%s", msg)
		} else {
			pass.Reportf(m.decl.Pos(), "%s", msg)
		}
	}
}

// hasNilGuard reports whether the method's first statement is
// `if recv == nil { ... }` — including conditions where the nil test is
// one disjunct of an || chain (`if t == nil || ref == 0`): a nil
// receiver still takes the guard branch.
func hasNilGuard(m *obsMethod) bool {
	if m.recvName == "" || len(m.decl.Body.List) == 0 {
		return false
	}
	ifs, ok := m.decl.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	return condImpliesNilTest(ifs.Cond, m.recvName)
}

// condImpliesNilTest reports whether cond is `recv == nil` (either
// operand order) or an || whose either side is.
func condImpliesNilTest(cond ast.Expr, recvName string) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.LOR:
		return condImpliesNilTest(bin.X, recvName) || condImpliesNilTest(bin.Y, recvName)
	case token.EQL:
		isRecv := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && id.Name == recvName
		}
		isNil := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && id.Name == "nil"
		}
		return (isRecv(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isRecv(bin.Y))
	}
	return false
}

// delegatesSafely reports whether every use of the receiver in m's body
// is as the receiver of a call to a method currently known safe.
func delegatesSafely(p *Package, m *obsMethod, methods map[*types.Func]*obsMethod) bool {
	if m.recvObj == nil {
		return false
	}
	ok := true
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if !ok {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if isCall {
			if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
				if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID && p.Info.Uses[id] == m.recvObj {
					callee, _ := p.Info.Uses[sel.Sel].(*types.Func)
					if dm := methods[callee]; dm != nil && dm.safe {
						// recv.SafeMethod(args...): the receiver use is
						// delegated; still scan the arguments.
						for _, arg := range call.Args {
							ast.Inspect(arg, visit)
						}
						return false
					}
				}
			}
		}
		if id, isID := n.(*ast.Ident); isID && p.Info.Uses[id] == m.recvObj {
			ok = false
			return false
		}
		return true
	}
	ast.Inspect(m.decl.Body, visit)
	return ok
}

// nilGuardFix builds the edit inserting `if recv == nil { return <zeros> }`
// as the method's first statement. It declines when a result type has no
// mechanically-derivable zero expression.
func nilGuardFix(p *Package, m *obsMethod) (SuggestedFix, bool) {
	if m.recvName == "" {
		return SuggestedFix{}, false
	}
	ret := "return"
	results := m.decl.Type.Results
	if results != nil && results.NumFields() > 0 {
		named := true
		var zeros []string
		for _, field := range results.List {
			if len(field.Names) == 0 {
				named = false
			}
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			z, ok := zeroExpr(p.typeOf(field.Type))
			if !ok {
				return SuggestedFix{}, false
			}
			for i := 0; i < n; i++ {
				zeros = append(zeros, z)
			}
		}
		if !named {
			ret = "return " + strings.Join(zeros, ", ")
		}
	}
	insert := p.Fset.Position(m.decl.Body.Lbrace).Offset + 1
	text := fmt.Sprintf("\n\tif %s == nil {\n\t\t%s\n\t}", m.recvName, ret)
	return SuggestedFix{
		Message: "insert nil-receiver guard",
		Edits:   []TextEdit{{Filename: p.Fset.Position(m.decl.Pos()).Filename, Start: insert, End: insert, NewText: text}},
	}, true
}

// zeroExpr renders the zero value of t as an expression, or ok=false
// when none is mechanically safe to synthesize.
func zeroExpr(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return "false", true
		case u.Info()&types.IsNumeric != 0:
			return "0", true
		case u.Info()&types.IsString != 0:
			return `""`, true
		}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil", true
	case *types.Struct:
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Name() + "{}", true
		}
	}
	return "", false
}
