package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dataai/internal/lint"
)

// wantRe extracts the expectation regex from a `// want `...“ comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// fixturePackage parses and type-checks every .go file under
// testdata/src/<dir> as one package with the given import path.
func fixturePackage(t *testing.T, dir, importPath string) *lint.Package {
	t.Helper()
	root := filepath.Join("testdata", "src", dir)
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(root, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", root)
	}
	pkg, err := lint.TypeCheck(fset, importPath, files, nil)
	if err != nil {
		t.Fatalf("typecheck fixtures: %v", err)
	}
	return pkg
}

// expectations maps "file:line" to the regexes `// want` comments declare
// there.
func expectations(t *testing.T, pkg *lint.Package) map[string][]*regexp.Regexp {
	t.Helper()
	want := map[string][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				want[key] = append(want[key], re)
			}
		}
	}
	return want
}

// matchDiagnostics checks got against the want expectations: every
// diagnostic must match a `// want` regex on its line, and every regex
// must be matched by some diagnostic.
func matchDiagnostics(t *testing.T, want map[string][]*regexp.Regexp, got []lint.Diagnostic) {
	t.Helper()
	matched := map[string][]bool{}
	for key, res := range want {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range got {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		res := want[key]
		found := false
		for i, re := range res {
			if re.MatchString(d.Message) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, flags := range matched {
		for i, ok := range flags {
			if !ok {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, want[key][i])
			}
		}
	}
}

func runFixture(t *testing.T, fixtureDir, analyzerName, importPath string) {
	t.Helper()
	a := lint.Lookup(analyzerName)
	if a == nil {
		t.Fatalf("analyzer %q not registered", analyzerName)
	}
	pkg := fixturePackage(t, fixtureDir, importPath)
	matchDiagnostics(t, expectations(t, pkg), lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a}))
}

// loadModuleFixture loads the mini-module under testdata/src/<dir> —
// it carries its own go.mod, so cross-package imports and dependency
// ordering work exactly as they do on the real repo.
func loadModuleFixture(t *testing.T, fixtureDir string) []*lint.Package {
	t.Helper()
	pkgs, _, err := lint.LoadWithReport(filepath.Join("testdata", "src", fixtureDir), "./...")
	if err != nil {
		t.Fatalf("load fixture module %s: %v", fixtureDir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages in fixture module %s", fixtureDir)
	}
	return pkgs
}

// runModuleFixture runs one analyzer over every package of a module
// fixture, aggregating `// want` expectations across all of its files.
// Facts exported by dependency packages are visible to dependents, so
// this is the harness for the cross-package analyzers.
func runModuleFixture(t *testing.T, fixtureDir, analyzerName string) {
	t.Helper()
	a := lint.Lookup(analyzerName)
	if a == nil {
		t.Fatalf("analyzer %q not registered", analyzerName)
	}
	pkgs := loadModuleFixture(t, fixtureDir)
	want := map[string][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for key, res := range expectations(t, pkg) {
			want[key] = append(want[key], res...)
		}
	}
	matchDiagnostics(t, want, lint.Run(pkgs, []*lint.Analyzer{a}))
}

func TestNondeterminismSeededPackage(t *testing.T) {
	runFixture(t, "nondeterminism", "nondeterminism", "fix/internal/experiments")
}

func TestNondeterminismRandParamScope(t *testing.T) {
	runFixture(t, "randparam", "nondeterminism", "fix/util")
}

func TestMapOrder(t *testing.T) {
	runFixture(t, "maporder", "maporder", "fix/maporder")
}

func TestUncheckedErr(t *testing.T) {
	runFixture(t, "uncheckederr", "uncheckederr", "fix/uncheckederr")
}

func TestLockBalance(t *testing.T) {
	runFixture(t, "lockbalance", "lockbalance", "fix/lockbalance")
}

func TestFloatEq(t *testing.T) {
	runFixture(t, "floateq", "floateq", "fix/floateq")
}

// TestWallTaint pins the interprocedural determinism gate: wall-clock
// reads laundered through one- and two-hop wrappers in a *different*
// package are caught at the call site inside the seeded package, with
// the witness chain in the message. The clean injected-clock path must
// stay silent.
func TestWallTaint(t *testing.T) {
	runModuleFixture(t, "walltaint", "walltaint")
}

// TestParCapture pins the captured-write analyzer against both the bug
// class (accumulate/append/map-write/increment into captures) and every
// accepted idiom (per-slot writes, chunk-local indexes, explicit locks,
// return-value commits).
func TestParCapture(t *testing.T) {
	runModuleFixture(t, "parcapture", "parcapture")
}

// TestObsGuard pins the nil-receiver contract: guarded methods (plain
// and compound conditions), delegation to guarded methods, unexported
// methods, and value receivers pass; exported unguarded methods fail.
func TestObsGuard(t *testing.T) {
	runFixture(t, "obsguard", "obsguard", "fix/internal/obs")
}

// TestCallGraphCrossPackageEdges pins how the call graph is built
// across package boundaries: the util.StampNow node a caller in
// fix/internal/sim resolves must be the same object util's own edges
// hang off, with the stdlib frontier (time.Now) reachable behind it.
func TestCallGraphCrossPackageEdges(t *testing.T) {
	pkgs := loadModuleFixture(t, "walltaint")
	g := lint.BuildCallGraph(pkgs)

	lookup := func(pkgPath, name string) *types.Func {
		for _, p := range pkgs {
			if p.ImportPath != pkgPath || p.Types == nil {
				continue
			}
			fn, _ := p.Types.Scope().Lookup(name).(*types.Func)
			if fn == nil {
				t.Fatalf("%s.%s not found in fixture", pkgPath, name)
			}
			return fn
		}
		t.Fatalf("package %s not loaded", pkgPath)
		return nil
	}
	stamp := lookup("fix/internal/sim", "Stamp")
	measure := lookup("fix/internal/sim", "Measure")
	stampNow := lookup("fix/util", "StampNow")
	elapsed := lookup("fix/util", "Elapsed")

	calleeNames := func(fn *types.Func) string {
		var names []string
		for _, c := range g.Callees(fn) {
			names = append(names, c.FullName())
		}
		return strings.Join(names, ", ")
	}
	// Cross-package edges: sim → util, resolved to the identical
	// *types.Func objects util's own pass sees.
	if got := g.Callees(stamp); len(got) != 1 || got[0] != stampNow {
		t.Errorf("Callees(sim.Stamp) = [%s], want exactly fix/util.StampNow", calleeNames(stamp))
	}
	if got := g.Callees(measure); len(got) != 1 || got[0] != elapsed {
		t.Errorf("Callees(sim.Measure) = [%s], want exactly fix/util.Elapsed", calleeNames(measure))
	}
	// The stdlib frontier: util.StampNow statically calls time.Now (the
	// UnixNano method call is also recorded — edges, not a set of one).
	foundTimeNow := false
	for _, e := range g.CallsFrom(stampNow) {
		if e.Callee.FullName() == "time.Now" {
			foundTimeNow = true
		}
		if e.Caller != stampNow {
			t.Errorf("CallsFrom(util.StampNow) returned edge with caller %v", e.Caller)
		}
	}
	if !foundTimeNow {
		t.Errorf("CallsFrom(util.StampNow) has no time.Now edge; callees: %s", calleeNames(stampNow))
	}
	// Two-hop chain within util: Elapsed → StampNow.
	if got := g.Callees(elapsed); len(got) != 1 || got[0] != stampNow {
		t.Errorf("Callees(util.Elapsed) = [%s], want exactly fix/util.StampNow", calleeNames(elapsed))
	}
}

// TestResilienceFixtureClean runs the ENTIRE analyzer suite over the
// resilience fixture — a distillation of internal/resilient's breaker
// locking, seeded-hash jitter, zero-guarded waste accounting, and
// sorted stats rendering — and requires zero diagnostics. It pins that
// the resilience layer's core idioms stay expressible without
// //lint:ignore suppressions.
func TestResilienceFixtureClean(t *testing.T) {
	pkg := fixturePackage(t, "resilience", "fix/internal/resilient")
	for _, d := range lint.Run([]*lint.Package{pkg}, lint.Analyzers()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestSimFixtureClean runs the ENTIRE analyzer suite over the simengine
// fixture — a distillation of internal/sim's (time, seq)-ordered event
// heap, logical-clock clamping, seeded fault-window draws, and sorted
// report rendering — under a seeded import path ("fix/internal/sim"),
// and requires zero diagnostics. It pins that the discrete-event
// engine's core idioms (including the exact-float tie-break in the heap
// comparator) stay expressible without //lint:ignore suppressions.
func TestSimFixtureClean(t *testing.T) {
	pkg := fixturePackage(t, "simengine", "fix/internal/sim")
	for _, d := range lint.Run([]*lint.Package{pkg}, lint.Analyzers()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestObstraceFixtureClean runs the ENTIRE analyzer suite over the
// obstrace fixture — a distillation of internal/obs's mutex-guarded
// span ingestion, (time, seq)-ordered export with its exact-float
// tie-break, sorted counter rendering, and error-checked trace writing
// — under a seeded import path ("fix/internal/obs"), and requires zero
// diagnostics. It pins that the observability layer's core idioms stay
// expressible without //lint:ignore suppressions.
func TestObstraceFixtureClean(t *testing.T) {
	pkg := fixturePackage(t, "obstrace", "fix/internal/obs")
	for _, d := range lint.Run([]*lint.Package{pkg}, lint.Analyzers()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestDecisiontraceFixtureClean runs the ENTIRE analyzer suite over the
// decisiontrace fixture — a distillation of the counterfactual-replay
// stack: a nil-safe mutex-guarded decision log, the strict-less scored
// argmin with an exact-float tie-break in the rank comparator, fan-out
// replay committing into per-slot results with loop indexes passed as
// arguments, and sorted regret rendering with checked writes — under a
// seeded import path ("fix/internal/serving"), and requires zero
// diagnostics. It pins that the decision-tracing idioms stay
// expressible without //lint:ignore suppressions.
func TestDecisiontraceFixtureClean(t *testing.T) {
	pkg := fixturePackage(t, "decisiontrace", "fix/internal/serving")
	for _, d := range lint.Run([]*lint.Package{pkg}, lint.Analyzers()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestSuiteRegistered pins the analyzer roster: removing a check from the
// suite should be a deliberate, visible act.
func TestSuiteRegistered(t *testing.T) {
	var names []string
	for _, a := range lint.Analyzers() {
		names = append(names, a.Name)
	}
	wantNames := []string{
		"floateq", "lockbalance", "maporder", "nondeterminism",
		"obsguard", "parcapture", "uncheckederr", "walltaint",
	}
	if strings.Join(names, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("registered analyzers = %v, want %v", names, wantNames)
	}
}

// TestLoadModule exercises the module loader on the real repo: it must
// find this very package and resolve its imports.
func TestLoadModule(t *testing.T) {
	pkgs, _, err := lint.LoadWithReport(".", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	found := false
	for _, p := range pkgs {
		if p.ImportPath == "dataai/internal/lint" {
			found = true
			if p.Types == nil {
				t.Fatal("lint package loaded without type info")
			}
		}
	}
	if !found {
		t.Fatal("LoadWithReport(./...) from internal/lint did not find dataai/internal/lint")
	}
}

// TestMultitenantFixtureClean runs the ENTIRE analyzer suite over the
// multitenant fixture — a distillation of the multi-tenant workload and
// admission layers: per-client RNG streams seeded from (spec seed,
// client ID), a largest-remainder count split with an exact-float
// tie-break, logical-clock token buckets over lazily-populated tenant
// maps, and sorted per-tenant stats rendering — under a seeded import
// path ("fix/internal/workload"), and requires zero diagnostics. It
// pins that the multi-tenant idioms stay expressible without
// //lint:ignore suppressions.
func TestMultitenantFixtureClean(t *testing.T) {
	pkg := fixturePackage(t, "multitenant", "fix/internal/workload")
	for _, d := range lint.Run([]*lint.Package{pkg}, lint.Analyzers()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
