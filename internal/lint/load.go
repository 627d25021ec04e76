package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed, and type-checked package — the unit an
// analyzer runs over.
type Package struct {
	// ImportPath is the module-qualified path, e.g. "dataai/internal/vecdb".
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package (may be incomplete if the source
	// has type errors — analyzers must tolerate nil type info).
	Types *types.Package
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info

	// deps are the module-local packages this one imports, sorted by
	// import path. Run analyzes them first so cross-package facts exist
	// when this package is analyzed.
	deps []*Package
}

// SkippedFile records one source file the loader excluded and why —
// nothing is dropped silently.
type SkippedFile struct {
	Path   string
	Reason string
}

// LoadReport accounts for everything Load looked at but did not analyze:
// directories whose only Go sources are _test.go files (no analyzable
// package, but a package nonetheless), and files excluded by build
// constraints (//go:build headers or GOOS/GOARCH filename suffixes) for
// the host configuration.
type LoadReport struct {
	// TestOnlyDirs are package directories containing only test files.
	TestOnlyDirs []string
	// SkippedFiles are sources excluded by build constraints.
	SkippedFiles []SkippedFile
}

// LoadWithReport parses and type-checks the packages matched by
// patterns, rooted at the module containing dir, and accounts for what
// it skipped and why. Patterns follow go tooling conventions: a
// relative directory ("./internal/vecdb") names one package, and a
// "/..." suffix matches the tree below it. Test files (_test.go),
// testdata directories, and dot/underscore-prefixed entries are skipped,
// like the go tool itself skips them; build constraints are evaluated
// for the host GOOS/GOARCH with no extra tags, so of two files gated
// //go:build race / !race exactly the !race one loads.
//
// Type checking resolves module-local imports by recursively loading
// sibling packages, and standard-library imports from GOROOT source —
// no compiled export data, no network, no external deps.
func LoadWithReport(dir string, patterns ...string) ([]*Package, *LoadReport, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := matchPatterns(dir, root, patterns)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	imp := newModuleImporter(fset, modPath, root)
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := imp.load(d)
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Strings(imp.report.TestOnlyDirs)
	sort.Slice(imp.report.SkippedFiles, func(i, j int) bool {
		return imp.report.SkippedFiles[i].Path < imp.report.SkippedFiles[j].Path
	})
	return pkgs, imp.report, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

// matchPatterns expands patterns (relative to base) into a sorted list of
// package directories under root. A directory qualifies when it holds
// any Go source at all — including test-only packages, which the loader
// then reports rather than silently dropping.
func matchPatterns(base, root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		start := pat
		if !filepath.IsAbs(start) {
			start = filepath.Join(base, start)
		}
		abs, err := filepath.Abs(start)
		if err != nil {
			return nil, err
		}
		start = abs
		if !recursive {
			if hasAnyGoFiles(start) {
				add(start)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", pat)
			}
			continue
		}
		err = filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasAnyGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	// Keep only directories inside the module.
	kept := dirs[:0]
	for _, d := range dirs {
		if d == root || strings.HasPrefix(d, root+string(filepath.Separator)) {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// hasAnyGoFiles reports whether dir holds any candidate Go source,
// test files included.
func hasAnyGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// moduleImporter type-checks module-local packages from source on demand
// and delegates everything else (the standard library) to the stdlib
// source importer. Both layers cache, so each package is checked once.
type moduleImporter struct {
	fset    *token.FileSet
	modPath string
	root    string
	std     types.Importer
	cache   map[string]*Package // keyed by directory
	loading map[string]bool     // import-cycle guard
	report  *LoadReport
}

func newModuleImporter(fset *token.FileSet, modPath, root string) *moduleImporter {
	return &moduleImporter{
		fset:    fset,
		modPath: modPath,
		root:    root,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*Package{},
		loading: map[string]bool{},
		report:  &LoadReport{},
	}
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		pkg, err := m.load(m.dirFor(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files for import %q", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// dirFor maps a module-local import path to its directory.
func (m *moduleImporter) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, m.modPath), "/")
	return filepath.Join(m.root, filepath.FromSlash(rel))
}

// load parses and type-checks the package in dir, caching the result.
// It returns (nil, nil) when dir holds no analyzable Go files, recording
// test-only packages and constraint-excluded files in the report.
func (m *moduleImporter) load(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if pkg, ok := m.cache[dir]; ok {
		return pkg, nil
	}
	if m.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	m.loading[dir] = true
	defer delete(m.loading, dir)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	testOnly := false
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			testOnly = true
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		if testOnly {
			m.report.TestOnlyDirs = append(m.report.TestOnlyDirs, dir)
		}
		m.cache[dir] = nil
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if reason, excluded := fileExcluded(name, src); excluded {
			m.report.SkippedFiles = append(m.report.SkippedFiles, SkippedFile{Path: path, Reason: reason})
			continue
		}
		f, err := parser.ParseFile(m.fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		// Every source was constraint-excluded for this configuration.
		m.cache[dir] = nil
		return nil, nil
	}

	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return nil, err
	}
	importPath := m.modPath
	if rel != "." {
		importPath = m.modPath + "/" + filepath.ToSlash(rel)
	}
	pkg, err := TypeCheck(m.fset, importPath, files, m)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	m.cache[dir] = pkg
	m.attachDeps(pkg)
	return pkg, nil
}

// attachDeps records the module-local packages pkg imports, resolved
// from the importer cache (type-checking pkg just populated it).
func (m *moduleImporter) attachDeps(pkg *Package) {
	seen := map[*Package]bool{}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path != m.modPath && !strings.HasPrefix(path, m.modPath+"/") {
				continue
			}
			dep := m.cache[filepath.Clean(m.dirFor(path))]
			if dep != nil && dep != pkg && !seen[dep] {
				seen[dep] = true
				pkg.deps = append(pkg.deps, dep)
			}
		}
	}
	sort.Slice(pkg.deps, func(i, j int) bool { return pkg.deps[i].ImportPath < pkg.deps[j].ImportPath })
}

// fileExcluded evaluates filename-suffix and //go:build constraints for
// the host configuration (GOOS, GOARCH, gc, unix where applicable, and
// the toolchain's go1.N versions — no free-form tags such as race). It
// returns a human-readable reason when the file is excluded.
func fileExcluded(name string, src []byte) (string, bool) {
	if os, arch, ok := filenameConstraint(name); ok {
		if os != "" && os != runtime.GOOS {
			return fmt.Sprintf("filename constrains GOOS=%s (host is %s)", os, runtime.GOOS), true
		}
		if arch != "" && arch != runtime.GOARCH {
			return fmt.Sprintf("filename constrains GOARCH=%s (host is %s)", arch, runtime.GOARCH), true
		}
	}
	expr, ok := headerConstraint(src)
	if !ok {
		return "", false
	}
	if !expr.Eval(buildTagSatisfied) {
		return fmt.Sprintf("build constraint %q not satisfied", exprString(expr)), true
	}
	return "", false
}

// filenameConstraint extracts GOOS/GOARCH constraints encoded in the
// file name per go/build rules: *_GOOS.go, *_GOARCH.go, *_GOOS_GOARCH.go.
func filenameConstraint(name string) (osName, arch string, ok bool) {
	base := strings.TrimSuffix(name, ".go")
	base = strings.TrimSuffix(base, "_test")
	parts := strings.Split(base, "_")
	if len(parts) < 2 {
		return "", "", false
	}
	last := parts[len(parts)-1]
	if knownArch[last] {
		arch = last
		if len(parts) >= 3 && knownOS[parts[len(parts)-2]] {
			osName = parts[len(parts)-2]
		}
		return osName, arch, true
	}
	if knownOS[last] {
		return last, "", true
	}
	return "", "", false
}

// headerConstraint parses the build constraint governing src, if any:
// the //go:build line when present, else the conjunction of legacy
// // +build lines. Scanning stops at the package clause.
func headerConstraint(src []byte) (constraint.Expr, bool) {
	var legacy []constraint.Expr
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if constraint.IsGoBuild(trimmed) {
				if expr, err := constraint.Parse(trimmed); err == nil {
					return expr, true
				}
			}
			if constraint.IsPlusBuild(trimmed) {
				if expr, err := constraint.Parse(trimmed); err == nil {
					legacy = append(legacy, expr)
				}
			}
			continue
		}
		break // package clause (or any code) ends the header
	}
	if len(legacy) == 0 {
		return nil, false
	}
	expr := legacy[0]
	for _, e := range legacy[1:] {
		expr = &constraint.AndExpr{X: expr, Y: e}
	}
	return expr, true
}

// buildTagSatisfied is the host tag set: GOOS, GOARCH, compiler, unix,
// and released go1.N versions. Free-form tags (race, integration, ...)
// are unset, matching a plain `go build`.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		return unixOS[runtime.GOOS]
	}
	if minor, ok := strings.CutPrefix(tag, "go1."); ok {
		if n, err := strconv.Atoi(minor); err == nil {
			return n <= goMinorVersion()
		}
	}
	return false
}

// goMinorVersion extracts N from runtime.Version()'s "go1.N[.M]".
func goMinorVersion() int {
	v := runtime.Version()
	rest, ok := strings.CutPrefix(v, "go1.")
	if !ok {
		return 22 // matches go.mod's floor
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if n, err := strconv.Atoi(rest); err == nil {
		return n
	}
	return 22
}

// exprString renders a constraint for the skip reason, tolerating nil.
func exprString(e constraint.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

var unixOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

// TypeCheck type-checks files as one package under importPath, resolving
// imports through imp (nil means standard library only, from source).
// Type errors are tolerated: analyzers see whatever facts the checker
// could compute. The fixture tests use this entry point directly.
func TypeCheck(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*Package, error) {
	if imp == nil {
		imp = importer.ForCompiler(fset, "source", nil)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // tolerate type errors; facts stay partial
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
