// Package lint is a dependency-free static-analysis framework in the shape
// of golang.org/x/tools/go/analysis, built on the standard library's go/ast
// and go/types only (the module has no third-party dependencies, and the
// build environment does not assume network access). It hosts the connvet
// analyzer suite: six analyzers that mechanically enforce the concurrency
// and durability contracts the engine otherwise states only in prose —
// the read-only query contract, dispatcher-goroutine ownership, the
// acked-implies-durable ordering, snapshot publication discipline, decoder
// allocation bounds, and durable-file error hygiene.
//
// The contracts are declared in the source with //conn: directive comments
// (see Directives) and verified per package by the analyzers. Annotations
// are exported as per-package facts so a contract crosses package
// boundaries: internal/core's Connected may call internal/ett's Connected
// because ett exports the method as //conn:readonly and the analyzer for
// core reads that fact.
//
// cmd/connvet compiles the suite into a `go vet -vettool` binary; CI runs
// it over ./... as a first-class gate. See DESIGN.md §8.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package, mirroring
// x/tools' analysis.Analyzer shape so the suite could migrate to the real
// framework if the dependency ever becomes available.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Dirs     *Directives
	Imported Facts

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Annotated reports whether the object identified by (pkgPath, id) carries
// the directive, consulting the current package's directives or, for other
// packages, the imported facts.
func (p *Pass) Annotated(pkgPath, id, directive string) bool {
	if pkgPath == p.Pkg.Path() {
		return p.Dirs.Has(directive, id)
	}
	return p.Imported.Has(pkgPath, directive, id)
}

// All returns the full connvet analyzer suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		ReadOnlyQuery,
		DispatcherOnly,
		AckAfterFsync,
		AtomicPublish,
		DecoderBounds,
		SyncErr,
	}
}

// Facts is annotation data exported by already-analyzed packages:
// package path -> directive -> set of object IDs (see Directives for the
// ID grammar). The driver persists Facts through `go vet`'s vetx files and
// merges each package's own directives into what it re-exports, so facts
// reach transitive dependents.
type Facts map[string]map[string][]string

// Has reports whether the fact set marks (pkgPath, id) with directive.
func (f Facts) Has(pkgPath, directive, id string) bool {
	dirs, ok := f[pkgPath]
	if !ok {
		return false
	}
	for _, have := range dirs[directive] {
		if have == id {
			return true
		}
	}
	return false
}

// Merge folds other into f.
func (f Facts) Merge(other Facts) {
	for pkg, dirs := range other {
		cur, ok := f[pkg]
		if !ok {
			cur = make(map[string][]string)
			f[pkg] = cur
		}
		for d, ids := range dirs {
			cur[d] = mergeSorted(cur[d], ids)
		}
	}
}

// Export returns f plus the package's own directives, the fact set a
// dependent package should see.
func (p *Pass) Export() Facts {
	out := make(Facts, len(p.Imported)+1)
	out.Merge(p.Imported)
	out.Merge(p.Dirs.Facts(p.Pkg.Path()))
	return out
}

func mergeSorted(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// RunPackage runs every analyzer in suite over one type-checked package and
// returns the diagnostics sorted by position. Test files (*_test.go) are
// excluded from every analyzer: the contracts bind production code, while
// tests deliberately stress them from foreign goroutines (the -race suites
// are their enforcement).
func RunPackage(suite []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, imported Facts) ([]Diagnostic, Facts, error) {

	prod := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if name := fset.Position(f.Package).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		prod = append(prod, f)
	}
	dirs := CollectDirectives(fset, prod)
	if imported == nil {
		imported = make(Facts)
	}

	var diags []Diagnostic
	var export Facts
	for _, a := range suite {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    prod,
			Pkg:      pkg,
			Info:     info,
			Dirs:     dirs,
			Imported: imported,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
		if export == nil {
			export = pass.Export()
		}
	}
	if export == nil { // empty suite
		pass := &Pass{Fset: fset, Files: prod, Pkg: pkg, Dirs: dirs, Imported: imported}
		export = pass.Export()
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags, export, nil
}

// NewInfo returns a types.Info with every map the analyzers need populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
