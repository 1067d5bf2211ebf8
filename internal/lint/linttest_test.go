// Fixture harness in the style of x/tools' analysistest, reimplemented on
// the standard library: each package under testdata/src is parsed,
// typechecked (fixture imports resolved recursively, the standard library
// from source), run through the full analyzer suite, and its diagnostics
// compared against `// want "regexp"` comments. Every rule has a violating
// fixture — which fails if the analyzer is neutered — and a compliant twin
// on the same page, which fails if the analyzer over-reports.
package lint_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixtureLoader typechecks packages under testdata/src. Fixture import
// paths are bare directory names ("factdep"); anything else is delegated
// to the source importer over GOROOT.
type fixtureLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*fixturePkg
}

type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	// imported is the fact set visible to this package: the exported facts
	// of every fixture package it imports, transitively.
	imported lint.Facts
	// export is what this package publishes onward (imported + own).
	export lint.Facts
}

func newFixtureLoader() *fixtureLoader {
	fset := token.NewFileSet()
	return &fixtureLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*fixturePkg),
	}
}

func fixtureDir(path string) (string, bool) {
	dir := filepath.Join("testdata", "src", path)
	st, err := os.Stat(dir)
	return dir, err == nil && st.IsDir()
}

// Import implements types.Importer over fixtures-first resolution.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if _, ok := fixtureDir(path); ok {
		fp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	return l.std.Import(path)
}

// load parses and typechecks one fixture package, memoized.
func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if fp, ok := l.pkgs[path]; ok {
		return fp, nil
	}
	dir, ok := fixtureDir(path)
	if !ok {
		return nil, fmt.Errorf("no fixture package %q", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture package %q has no Go files", path)
	}

	info := lint.NewInfo()
	cfg := &types.Config{Importer: l}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking fixture %q: %w", path, err)
	}

	imported := make(lint.Facts)
	for _, f := range files {
		for _, imp := range f.Imports {
			depPath := strings.Trim(imp.Path.Value, `"`)
			if _, ok := fixtureDir(depPath); !ok {
				continue
			}
			dep, err := l.load(depPath)
			if err != nil {
				return nil, err
			}
			imported.Merge(dep.export)
		}
	}
	export := make(lint.Facts)
	export.Merge(imported)
	export.Merge(lint.CollectDirectives(l.fset, files).Facts(path))

	fp := &fixturePkg{pkg: pkg, files: files, info: info, imported: imported, export: export}
	l.pkgs[path] = fp
	return fp, nil
}

// expectation is one `// want "regexp"` comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, m[1], err)
			}
			wants = append(wants, &expectation{file: e.Name(), line: i + 1, re: re})
		}
	}
	return wants
}

// runFixture loads the named fixture, runs the full suite, and matches the
// diagnostics one-to-one against the fixture's want comments.
func runFixture(t *testing.T, name string) lint.Facts {
	t.Helper()
	loader := newFixtureLoader()
	fp, err := loader.load(name)
	if err != nil {
		t.Fatal(err)
	}
	diags, export, err := lint.RunPackage(lint.All(), loader.fset, fp.files, fp.pkg, fp.info, fp.imported)
	if err != nil {
		t.Fatal(err)
	}

	dir, _ := fixtureDir(name)
	wants := collectWants(t, dir)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if !matched[i] && w.file == filepath.Base(d.Pos.Filename) &&
				w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s [%s]",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message, d.Analyzer)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return export
}

func TestReadOnlyQueryFixture(t *testing.T)  { runFixture(t, "roq") }
func TestDispatcherOnlyFixture(t *testing.T) { runFixture(t, "dispo") }
func TestAckAfterFsyncFixture(t *testing.T)  { runFixture(t, "ackf") }
func TestAtomicPublishFixture(t *testing.T)  { runFixture(t, "atompub") }
func TestDecoderBoundsFixture(t *testing.T)  { runFixture(t, "decb") }
func TestSyncErrFixture(t *testing.T)        { runFixture(t, "sefix") }

// TestCrossPackageFacts proves annotations travel: factuse's Connected is
// legal only because factdep's fact for Index.Len was imported, and the
// re-exported fact set carries both packages' annotations onward.
func TestCrossPackageFacts(t *testing.T) {
	export := runFixture(t, "factuse")
	if !export.Has("factdep", lint.DirReadonly, "Index.Len") {
		t.Errorf("factuse export is missing the transitive factdep Index.Len readonly fact")
	}
	if !export.Has("factuse", lint.DirReadonly, "View.Connected") {
		t.Errorf("factuse export is missing its own View.Connected readonly fact")
	}
}

// TestSuiteComplete pins the suite composition: a rule dropped from All()
// silently stops running under go vet; this makes the drop loud.
func TestSuiteComplete(t *testing.T) {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	want := []string{"ackafterfsync", "atomicpublish", "decoderbounds",
		"dispatcheronly", "readonlyquery", "syncerr"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("analyzer suite is %v, want %v", names, want)
	}
}
