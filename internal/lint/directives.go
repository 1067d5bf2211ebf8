// Directive collection: the //conn: comment grammar and its mapping onto
// syntactic object IDs.
//
// # Directive grammar
//
// A directive is a comment line of the form `//conn:<name>` (no space after
// `//`, matching Go's convention for machine-readable directives). Where it
// may appear and what it marks:
//
//	//conn:readonly          func/method doc — the body must be mutation-free
//	                         with respect to the receiver (readonlyquery).
//	//conn:readonly-queries  type doc — the canonical query-method names on
//	                         this type MUST carry //conn:readonly.
//	//conn:dispatcher-only   func/method doc or struct field — owned by the
//	                         dispatcher goroutine (dispatcheronly).
//	//conn:dispatcher-entry  statement line (own line above, or trailing) —
//	                         this statement is the sanctioned hand-off of a
//	                         dispatcher-only function to its goroutine.
//	//conn:ack-after-fsync   func doc — ack calls inside must follow the
//	                         first durability barrier (ackafterfsync).
//	//conn:fsync-barrier     func/method doc or func-typed field — calling
//	                         it establishes the durability barrier.
//	//conn:ack               func/method doc or func-typed field — calling
//	                         it acknowledges an operation to a caller.
//	//conn:published         type doc — atomic.Pointer[T] of this type may
//	                         be Stored/Swapped only inside //conn:publish-helper
//	                         functions (atomicpublish).
//	//conn:publish-helper    func/method doc — may raw-Store published types.
//	//conn:decoders          package comment — decoderbounds applies to the
//	                         whole package.
//	//conn:validated-len     func/method doc — its integer result is a
//	                         hostile-input-validated element count.
//	//conn:durable-files     package comment — syncerr applies to the whole
//	                         package.
//
// # Object IDs
//
// Directives attach to syntactic declarations and are keyed by readable IDs
// so they can round-trip through fact files:
//
//	package function   FuncName
//	method             RecvType.Method   (pointer receivers undecorated)
//	struct field       StructType.field
//	type               TypeName
//
// IDs are package-relative; Facts qualifies them with the package path.
package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive names.
const (
	DirReadonly        = "readonly"
	DirReadonlyQueries = "readonly-queries"
	DirDispatcherOnly  = "dispatcher-only"
	DirDispatcherEntry = "dispatcher-entry"
	DirAckAfterFsync   = "ack-after-fsync"
	DirFsyncBarrier    = "fsync-barrier"
	DirAck             = "ack"
	DirPublished       = "published"
	DirPublishHelper   = "publish-helper"
	DirDecoders        = "decoders"
	DirValidatedLen    = "validated-len"
	DirDurableFiles    = "durable-files"
)

// Directives is every //conn: annotation found in one package's production
// files.
type Directives struct {
	// byDirective maps directive name -> object ID set.
	byDirective map[string]map[string]bool
	// pkgLevel holds directives attached to a package clause.
	pkgLevel map[string]bool
	// lines maps "filename:line" -> set of statement-level directives
	// found on that source line (e.g. dispatcher-entry).
	lines map[string]map[string]bool
}

// Has reports whether id carries the directive.
func (d *Directives) Has(directive, id string) bool {
	return d.byDirective[directive][id]
}

// PackageLevel reports whether the package carries a package-level
// directive (on any file's package clause).
func (d *Directives) PackageLevel(directive string) bool {
	return d.pkgLevel[directive]
}

// Facts packages the directive set as the fact map a dependent package
// sees, qualified with the declaring package's import path.
func (d *Directives) Facts(pkgPath string) Facts {
	own := make(map[string][]string, len(d.byDirective))
	for directive, ids := range d.byDirective {
		sorted := make([]string, 0, len(ids))
		for id := range ids {
			sorted = append(sorted, id)
		}
		sort.Strings(sorted)
		own[directive] = sorted
	}
	return Facts{pkgPath: own}
}

// LineAnnotated reports whether the source line holding pos (or the line
// immediately above it) carries the statement-level directive.
func (d *Directives) LineAnnotated(fset *token.FileSet, pos token.Pos, directive string) bool {
	p := fset.Position(pos)
	if d.lines[lineKey(p.Filename, p.Line)][directive] {
		return true
	}
	return d.lines[lineKey(p.Filename, p.Line-1)][directive]
}

func lineKey(file string, line int) string {
	return file + ":" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// directivesIn extracts the //conn: directive names from a comment group.
func directivesIn(g *ast.CommentGroup) []string {
	if g == nil {
		return nil
	}
	var out []string
	for _, c := range g.List {
		if name, ok := strings.CutPrefix(c.Text, "//conn:"); ok {
			name = strings.TrimSpace(name)
			if i := strings.IndexAny(name, " \t"); i >= 0 {
				name = name[:i]
			}
			if name != "" {
				out = append(out, name)
			}
		}
	}
	return out
}

// recvTypeName returns the undecorated receiver type name of a method
// declaration ("" for a plain function).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// FuncID returns the object ID for a function declaration.
func FuncID(fd *ast.FuncDecl) string {
	if r := recvTypeName(fd); r != "" {
		return r + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// CollectDirectives scans a package's files for every //conn: annotation.
func CollectDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		byDirective: make(map[string]map[string]bool),
		pkgLevel:    make(map[string]bool),
		lines:       make(map[string]map[string]bool),
	}
	add := func(directive, id string) {
		set := d.byDirective[directive]
		if set == nil {
			set = make(map[string]bool)
			d.byDirective[directive] = set
		}
		set[id] = true
	}
	for _, f := range files {
		// Package-level: directives in the package clause's doc comment.
		for _, name := range directivesIn(f.Doc) {
			d.pkgLevel[name] = true
		}
		// Statement-level: every //conn: comment is indexed by its source
		// line so LineAnnotated can match statements.
		for _, g := range f.Comments {
			for _, c := range g.List {
				if names := directivesIn(&ast.CommentGroup{List: []*ast.Comment{c}}); len(names) > 0 {
					p := fset.Position(c.Pos())
					set := d.lines[lineKey(p.Filename, p.Line)]
					if set == nil {
						set = make(map[string]bool)
						d.lines[lineKey(p.Filename, p.Line)] = set
					}
					for _, name := range names {
						set[name] = true
					}
				}
			}
		}
		for _, decl := range f.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				for _, name := range directivesIn(dd.Doc) {
					add(name, FuncID(dd))
				}
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(dd.Specs) == 1 {
						doc = dd.Doc
					}
					for _, name := range directivesIn(doc) {
						add(name, ts.Name.Name)
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						var names []string
						names = append(names, directivesIn(field.Doc)...)
						names = append(names, directivesIn(field.Comment)...)
						if len(names) == 0 {
							continue
						}
						for _, fn := range field.Names {
							for _, name := range names {
								add(name, ts.Name.Name+"."+fn.Name)
							}
						}
					}
				}
			}
		}
	}
	return d
}
