package dataai

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"dataai/internal/lint"
)

var module struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

// loadModule parses and type-checks every package of the module once
// for all the tests in this file. The pattern also reaches perfbench,
// which loads as dataai/perfbench, so the benchmark's calls count as
// calls.
func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	module.once.Do(func() {
		module.pkgs, _, module.err = lint.LoadWithReport(".", "./...")
	})
	if module.err != nil {
		t.Fatalf("loading packages: %v", module.err)
	}
	if len(module.pkgs) < 20 {
		// The module has ~25 packages; a short list means the loader
		// silently missed most of the tree and the gate is not gating.
		t.Fatalf("loaded only %d packages; loader lost the module tree", len(module.pkgs))
	}
	return module.pkgs
}

// TestLintSelfCheck runs the full static-analysis suite (internal/lint)
// over every package in the module, exactly as `go run ./cmd/dataailint
// ./...` does. Its presence makes the determinism, error-handling, and
// concurrency invariants part of tier-1 verification: introducing a
// time.Now into internal/experiments, an unchecked error, or an
// unbalanced mutex fails `go test ./...`, not just a CI step someone has
// to remember to run.
func TestLintSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	// The full suite must be exactly the eight analyzers the docs and
	// fixtures cover; shrinking it should fail loudly, not silently
	// weaken the gate.
	if got := len(lint.Analyzers()); got != 8 {
		var names []string
		for _, a := range lint.Analyzers() {
			names = append(names, a.Name)
		}
		t.Fatalf("suite has %d analyzers (%v), want 8", got, names)
	}
	pkgs := loadModule(t)
	// RunAudited matches what `go run ./cmd/dataailint ./...` does: the
	// full suite plus the stale-suppression audit, so a //lint:ignore
	// whose finding has been fixed also fails tier-1.
	diags := lint.RunAudited(pkgs, lint.Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("run `go run ./cmd/dataailint ./...` locally; suppress a justified finding with //lint:ignore <check> <reason>")
	}
}

// TestEveryExportedFunctionHasACaller fails on each exported top-level
// function declared under internal/ that no non-test file references.
// internal/ packages cannot be imported from outside the module, so such
// a function serves only tests. Delete it, or give it a caller: a
// program (cmd/*, examples/*, the experiments, perfbench) or a facade
// re-export in dataai.go. A reference inside the function's own body
// (recursion) does not count. This is a test rather than an analyzer
// because an analyzer sees one package at a time, with facts flowing
// only from imports to importers, never the callers in other packages.
// Methods are not checked: a method can be reached through an interface
// with no reference to its name.
func TestEveryExportedFunctionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	pkgs := loadModule(t)
	type decl struct {
		fn       *types.Func
		pos      token.Position
		from, to token.Pos
	}
	var decls []decl
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, "dataai/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					decls = append(decls, decl{fn, p.Fset.Position(fd.Pos()), fd.Pos(), fd.End()})
				}
			}
		}
	}
	uses := map[*types.Func][]token.Pos{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				uses[fn] = append(uses[fn], id.Pos())
			}
		}
	}
	var uncalled []string
	for _, d := range decls {
		called := false
		for _, pos := range uses[d.fn] {
			if pos < d.from || pos >= d.to {
				called = true
				break
			}
		}
		if !called {
			uncalled = append(uncalled, d.pos.String()+": "+d.fn.Pkg().Path()+"."+d.fn.Name())
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s has no caller outside tests", u)
	}
	if len(decls) < 100 {
		// internal/ declares a few hundred exported functions; a short
		// list means the scan is not looking at the tree.
		t.Fatalf("found only %d exported functions under internal/", len(decls))
	}
}
