package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dataai/internal/lint"
)

// TestApplyFixesDeletesStaleIgnore drives the suppression audit through
// the fix engine end to end: stale //lint:ignore directives (one on its
// own line, one trailing code) are reported by RunAudited with deletion
// fixes, ApplyFixes removes exactly the comments, and a second audited
// run over the rewritten tree is clean — the tool is idempotent.
func TestApplyFixesDeletesStaleIgnore(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module tmp\n\ngo 1.22\n",
		"c/c.go": `package c

//lint:ignore floateq the finding this justified is long gone
func Eq(a, b int) bool { return a == b }

func Sub(a int) int {
	return a - 1 //lint:ignore nondeterminism historical
}
`,
	})

	audit := func() []lint.Diagnostic {
		pkgs, _, err := lint.LoadWithReport(dir, "./...")
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		return lint.RunAudited(pkgs, lint.Analyzers())
	}

	diags := audit()
	if len(diags) != 2 {
		t.Fatalf("RunAudited = %v, want two staleignore findings", diags)
	}
	for _, d := range diags {
		if d.Check != "staleignore" || len(d.SuggestedFixes) == 0 {
			t.Fatalf("finding %s lacks check/fix", d)
		}
	}

	res, err := lint.ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if res.Applied != 2 || res.Skipped != 0 || len(res.Files) != 1 {
		t.Fatalf("FixResult = %+v, want 2 applied to one file", res)
	}

	src, err := os.ReadFile(filepath.Join(dir, "c", "c.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "lint:ignore") {
		t.Errorf("directives survived the fix:\n%s", src)
	}
	if !strings.Contains(string(src), "func Eq(a, b int) bool { return a == b }") {
		t.Errorf("code around the standalone directive was damaged:\n%s", src)
	}
	if !strings.Contains(string(src), "return a - 1\n") {
		t.Errorf("code before the trailing directive was damaged:\n%s", src)
	}

	if diags := audit(); len(diags) != 0 {
		t.Errorf("second audited run not clean: %v", diags)
	}
	// And the fix path itself is a no-op on a clean tree.
	res, err = lint.ApplyFixes(nil)
	if err != nil || res.Applied != 0 || len(res.Files) != 0 {
		t.Errorf("ApplyFixes on clean tree = %+v, %v; want zero-value no-op", res, err)
	}
}

// TestApplyFixesInsertsNilGuard drives obsguard's suggested fix through
// the engine: the inserted guard compiles, satisfies the analyzer on
// the next run, and the rewritten file is gofmt-clean (ApplyFixes
// formats Go files after splicing).
func TestApplyFixesInsertsNilGuard(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module tmp\n\ngo 1.22\n",
		"internal/obs/p.go": `package obs

// Probe is nil when disabled.
type Probe struct{ n int }

// Count forgot its guard.
func (p *Probe) Count() int {
	return p.n
}
`,
	})

	run := func() []lint.Diagnostic {
		pkgs, _, err := lint.LoadWithReport(dir, "./...")
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		return lint.Run(pkgs, []*lint.Analyzer{lint.Lookup("obsguard")})
	}

	diags := run()
	if len(diags) != 1 || len(diags[0].SuggestedFixes) == 0 {
		t.Fatalf("obsguard = %v, want one fixable finding", diags)
	}
	if _, err := lint.ApplyFixes(diags); err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}

	src, err := os.ReadFile(filepath.Join(dir, "internal", "obs", "p.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "if p == nil {\n\t\treturn 0\n\t}") {
		t.Errorf("guard not inserted as expected:\n%s", src)
	}
	if diags := run(); len(diags) != 0 {
		t.Errorf("obsguard still fires after its own fix: %v", diags)
	}
}
