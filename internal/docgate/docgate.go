// Package docgate enforces the repo's godoc contract on selected
// packages: every exported identifier — package, type, function, method
// on an exported type, const and var — carries a doc comment. It is the
// small in-tree stand-in for a revive/golint exported-comment check
// (nothing may be go-installed into this build), run both as a test
// (internal/docgate's own suite gates internal/fabric, internal/nic and
// internal/mpi) and as a CI command (tools/docgate).
package docgate

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
)

// GatedDirsFromRoot lists, relative to the repository root, the packages
// whose exported identifiers must all carry doc comments — the fabric
// layer and the two layers that consume it, where the transport contract
// lives. Growing the gate to more packages is one line here (plus
// whatever doc comments that package still owes).
func GatedDirsFromRoot() []string {
	return []string{
		// internal/cluster is the control plane of the N-rank runtime
		// (registry, liveness, rank-death verdicts) — operator-facing
		// surface, documented like the transports it coordinates.
		"internal/cluster",
		// internal/core is the engine itself; gated so a rewrite of it
		// cannot shed the reason-giving comments its API carries.
		"internal/core",
		"internal/fabric",
		"internal/fabric/bufpool",
		"internal/fabric/conformance",
		"internal/fabric/shmfab",
		"internal/fabric/simfab",
		"internal/fabric/tcpfab",
		"internal/fabric/udpfab",
		"internal/nic",
		"internal/mpi",
		// internal/wire carries exported fabric-facing surface too (the
		// simulator the sim backend adapts, including the batched
		// PollBatch drain), so it is held to the same standard.
		"internal/wire",
		// internal/telemetry is the observability contract every layer
		// registers into (docs/OBSERVABILITY.md); its exported surface
		// is what nmtop and external scrapers build on.
		"internal/telemetry",
	}
}

// finding is one undocumented exported identifier, kept structured until
// output so sorting is by true position, not lexical line-number order.
type finding struct {
	file string
	line int
	msg  string
}

// Missing parses the single Go package in dir (test files excluded) and
// returns one "file:line: message" finding per exported identifier that
// lacks a doc comment, sorted by file then line. A missing package
// comment is one finding, anchored to the package clause of the
// lexically first file. An empty slice means the package passes the gate.
func Missing(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("docgate: parse %s: %w", dir, err)
	}
	var found []finding
	for _, pkg := range pkgs {
		found = append(found, missingInPkg(fset, pkg)...)
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].file != found[j].file {
			return found[i].file < found[j].file
		}
		if found[i].line != found[j].line {
			return found[i].line < found[j].line
		}
		return found[i].msg < found[j].msg
	})
	out := make([]string, len(found))
	for i, f := range found {
		out[i] = fmt.Sprintf("%s:%d: %s", f.file, f.line, f.msg)
	}
	return out, nil
}

// missingInPkg walks one parsed package.
func missingInPkg(fset *token.FileSet, pkg *ast.Package) []finding {
	var out []finding
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, finding{
			file: p.Filename,
			line: p.Line,
			msg:  fmt.Sprintf("exported %s %s has no doc comment", what, name),
		})
	}
	pkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil {
			pkgDoc = true
		}
	}
	if !pkgDoc {
		// Anchor to the lexically first file so the finding is stable run
		// to run (pkg.Files is a map).
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) > 0 {
			report(pkg.Files[names[0]].Name.Pos(), "package", pkg.Name)
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				if recv, exported := receiverName(d); recv != "" && !exported {
					continue // method on an unexported type: not API surface
				} else if recv != "" {
					report(d.Pos(), "method", recv+"."+d.Name.Name)
				} else {
					report(d.Pos(), "function", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						// A doc comment on the grouped decl ("// Real-mode
						// protocol tags.") covers every spec in the block,
						// matching godoc's rendering.
						if d.Doc != nil || s.Doc != nil || s.Comment != nil {
							continue
						}
						for _, n := range s.Names {
							if n.IsExported() {
								what := "const"
								if d.Tok == token.VAR {
									what = "var"
								}
								report(n.Pos(), what, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName returns a method's receiver type name and whether that
// type is exported; ("", false) for plain functions.
func receiverName(d *ast.FuncDecl) (string, bool) {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "", false
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name, x.IsExported()
		default:
			return "", false
		}
	}
}
