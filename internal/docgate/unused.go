package docgate

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// UnusedAllowlist names the exported identifiers under internal/ that may
// stay without a non-test reference, keyed "dir.Name" (or "dir.Recv.Name"
// for a method), each with the reason it stays. Unused fails on an entry
// that no longer matches a declaration, so the list cannot rot.
var UnusedAllowlist = map[string]string{
	"internal/ptime.SetVirtual": "tests in other packages switch the virtual clock on; " +
		"an export_test.go hook would be visible to ptime's own tests only",
	"internal/exp.RunExchangeN": "the root bench_test.go drives it; it goes when the " +
		"paper's figures become nmperf sweeps (ROADMAP 4(e))",
}

// unusedExempt lists the test-support packages: their whole exported
// surface exists for other packages' tests.
var unusedExempt = []string{"internal/fabric/conformance", "internal/testenv"}

// stdMethods are method names a standard-library interface calls
// (fmt.Stringer, error); the call never names them in this module.
var stdMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// Unused parses every non-test Go file under root (the module root; the
// benchmark module, cmd/, examples/, tools/ and the root package all
// count) and returns one "file:line: message" finding per exported
// top-level identifier or method declared under internal/ whose name no
// non-test file references apart from its own declaration. Matching is by
// name, so it can miss an unused method that shares a name with a used
// one, but it never reports an identifier some caller names.
//
// Exempt: the test-support packages, methods of unexported types (not
// API surface; the godoc gate skips them too), methods of the types the
// root package aliases (the module's only importable API), methods a
// standard-library interface calls, and the allow list (UnusedAllowlist,
// for this repository).
func Unused(root string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("docgate: %w", err)
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Every identifier that names something rather than declaring it.
	// Inspect visits a declaration before the identifiers it declares, so
	// one pass can tell them apart. A method's receiver type is part of
	// the type's own declaration.
	refs := map[string]bool{}
	for _, f := range files {
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				declared[x.Name] = true
				if id := receiverIdent(x); id != nil {
					declared[id] = true
				}
			case *ast.TypeSpec:
				declared[x.Name] = true
			case *ast.ValueSpec:
				for _, id := range x.Names {
					declared[id] = true
				}
			case *ast.Field:
				for _, id := range x.Names {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[x] {
					refs[x.Name] = true
				}
			}
			return true
		})
	}

	public := aliasedTypes(fset, files, root)
	allowed := map[string]bool{}
	var found []finding
	for _, f := range files {
		dir := relDir(fset, f, root)
		if !strings.HasPrefix(dir, "internal/") || slices.Contains(unusedExempt, dir) {
			continue
		}
		report := func(id *ast.Ident, what, key string) {
			if _, ok := allow[key]; ok {
				allowed[key] = true
				return
			}
			if refs[id.Name] {
				return
			}
			p := fset.Position(id.Pos())
			found = append(found, finding{file: p.Filename, line: p.Line,
				msg: fmt.Sprintf("exported %s %s has no non-test reference", what, key)})
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				recv, exported := receiverName(d)
				switch {
				case recv == "":
					report(d.Name, "function", dir+"."+d.Name.Name)
				case !exported || public[dir+"."+recv] || stdMethods[d.Name.Name]:
				default:
					report(d.Name, "method", dir+"."+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							report(s.Name, "type", dir+"."+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								report(id, strings.ToLower(d.Tok.String()), dir+"."+id.Name)
							}
						}
					}
				}
			}
		}
	}
	for key := range allow {
		if !allowed[key] {
			found = append(found, finding{file: key, msg: "allowlisted identifier is not declared any more; drop the entry"})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].file != found[j].file {
			return found[i].file < found[j].file
		}
		return found[i].line < found[j].line
	})
	out := make([]string, len(found))
	for i, f := range found {
		out[i] = fmt.Sprintf("%s:%d: %s", f.file, f.line, f.msg)
	}
	return out, nil
}

// aliasedTypes returns, keyed "dir.Type", the internal types the root
// package re-exports as aliases (type Proc = mpi.Proc).
func aliasedTypes(fset *token.FileSet, files []*ast.File, root string) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		if relDir(fset, f, root) != "." {
			continue
		}
		imports := map[string]string{} // package name → "internal/..." dir
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := filepath.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if i := strings.Index(path, "internal/"); i >= 0 {
				imports[name] = path[i:]
			}
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				s := spec.(*ast.TypeSpec)
				sel, ok := s.Type.(*ast.SelectorExpr)
				if !s.Assign.IsValid() || !ok {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); ok {
					out[imports[pkg.Name]+"."+sel.Sel.Name] = true
				}
			}
		}
	}
	return out
}

// relDir is f's directory relative to root, slash-separated.
func relDir(fset *token.FileSet, f *ast.File, root string) string {
	rel, err := filepath.Rel(root, filepath.Dir(fset.Position(f.Package).Filename))
	if err != nil {
		return ""
	}
	return filepath.ToSlash(rel)
}
