// Command connvet is the engine's contract checker: the internal/lint
// analyzer suite compiled into a binary that speaks cmd/go's (unpublished)
// vettool protocol, so the concurrency and durability contracts run under
// plain `go vet`:
//
//	go build -o /tmp/connvet ./cmd/connvet
//	go vet -vettool=/tmp/connvet ./...
//
// That protocol is connvet's only entry point; any other invocation exits 2
// with a usage line.
//
// Protocol notes (mirroring x/tools' unitchecker, reimplemented here on the
// standard library because this module carries no third-party deps):
// cmd/go probes `-V=full` for a tool build ID and `-flags` for supported
// analyzer flags, then invokes the tool once per package with a JSON config
// file argument. The tool typechecks the package from the export data cmd/go
// already produced (Config.PackageFile), reads per-dependency fact files
// (Config.PackageVetx), and must write its own facts to Config.VetxOutput.
// connvet's facts are the //conn: directive sets (lint.Facts), so contract
// annotations cross package boundaries. Packages outside this module are
// skipped wholesale: their vetx output is an empty fact set.
package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/lint"
)

func main() {
	vFlag := flag.String("V", "", "print version (cmd/go toolchain protocol)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON (cmd/go vet protocol)")
	flag.Parse()

	args := flag.Args()
	switch {
	case *vFlag != "":
		printVersion()
	case *flagsFlag:
		// No analyzer-specific flags; cmd/go requires a JSON list.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(runUnit(args[0]))
	default:
		fatalf("usage: go vet -vettool=/path/to/connvet [packages]")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// printVersion emits the line cmd/go's toolID() parses: at least three
// fields, fields[1] == "version", and for a "devel" toolchain a final
// buildID= field. Hashing the executable makes the ID track the binary, so
// editing an analyzer invalidates cmd/go's vet cache.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))
			}
			_ = f.Close()
		}
	}
	fmt.Printf("connvet version devel buildID=%s\n", id)
}

// vetConfig is the JSON cmd/go writes for each package (see
// cmd/go/internal/work.vetConfig). Field names must match exactly.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatalf("connvet: reading config: %v", err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatalf("connvet: parsing %s: %v", cfgPath, err)
	}

	if !isLocalPackage(&cfg) {
		// Dependencies outside this module carry no //conn: contracts;
		// publish an empty fact set and move on.
		if err := writeVetx(cfg.VetxOutput, lint.Facts{}); err != nil {
			fatalf("connvet: %v", err)
		}
		return 0
	}

	fset := token.NewFileSet()
	files, parseErr := parseFiles(fset, cfg.Dir, cfg.GoFiles)

	imported := make(lint.Facts)
	for _, vetxFile := range cfg.PackageVetx {
		facts, err := readVetx(vetxFile)
		if err != nil {
			fatalf("connvet: reading facts %s: %v", vetxFile, err)
		}
		imported.Merge(facts)
	}

	if parseErr != nil {
		if cfg.SucceedOnTypecheckFailure {
			_ = writeVetx(cfg.VetxOutput, factsFromParse(fset, files, cfg.ImportPath, imported))
			return 0
		}
		fatalf("connvet: %v", parseErr)
	}

	if cfg.VetxOnly {
		// Directive facts need only syntax, not types: collect and publish
		// without the cost of a typecheck.
		if err := writeVetx(cfg.VetxOutput, factsFromParse(fset, files, cfg.ImportPath, imported)); err != nil {
			fatalf("connvet: %v", err)
		}
		return 0
	}

	pkg, info, err := typecheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			_ = writeVetx(cfg.VetxOutput, factsFromParse(fset, files, cfg.ImportPath, imported))
			return 0
		}
		fatalf("connvet: typechecking %s: %v", cfg.ImportPath, err)
	}

	diags, export, err := lint.RunPackage(lint.All(), fset, files, pkg, info, imported)
	if err != nil {
		fatalf("connvet: %v", err)
	}
	if err := writeVetx(cfg.VetxOutput, export); err != nil {
		fatalf("connvet: %v", err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// isLocalPackage reports whether the unit belongs to this module — the only
// code the contract analyzers apply to.
func isLocalPackage(cfg *vetConfig) bool {
	if cfg.ModulePath == "repro" {
		return true
	}
	return cfg.ImportPath == "repro" || strings.HasPrefix(cfg.ImportPath, "repro/")
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return files, err
		}
		files = append(files, f)
	}
	return files, nil
}

// factsFromParse is the typecheck-free fact path used for VetxOnly units:
// imported facts plus this package's own directives.
func factsFromParse(fset *token.FileSet, files []*ast.File, importPath string, imported lint.Facts) lint.Facts {
	prod := files[:0:0]
	for _, f := range files {
		if name := fset.Position(f.Package).Filename; !strings.HasSuffix(name, "_test.go") {
			prod = append(prod, f)
		}
	}
	dirs := lint.CollectDirectives(fset, prod)
	out := make(lint.Facts)
	out.Merge(imported)
	out.Merge(dirs.Facts(importPath))
	return out
}

func typecheck(fset *token.FileSet, files []*ast.File, cfg *vetConfig) (*types.Package, *types.Info, error) {
	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if canonical, ok := cfg.ImportMap[importPath]; ok {
			importPath = canonical
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(importPath)
	})
	tc := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", buildArch()),
	}
	if cfg.GoVersion != "" {
		tc.GoVersion = cfg.GoVersion
	}
	info := lint.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func buildArch() string {
	if arch := os.Getenv("GOARCH"); arch != "" {
		return arch
	}
	return runtime.GOARCH
}

func writeVetx(path string, facts lint.Facts) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(facts); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readVetx(path string) (lint.Facts, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var facts lint.Facts
	if err := gob.NewDecoder(f).Decode(&facts); err != nil {
		if err == io.EOF {
			return lint.Facts{}, nil
		}
		return nil, err
	}
	return facts, nil
}
