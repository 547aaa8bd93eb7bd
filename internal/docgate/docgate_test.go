package docgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGodocCoverage is the repo's godoc gate: it fails on any exported
// identifier in a gated package (docgate.GatedDirsFromRoot) that lacks a
// doc comment. CI also runs this check as a standalone command via
// tools/docgate.
func TestGodocCoverage(t *testing.T) {
	for _, root := range GatedDirsFromRoot() {
		dir := filepath.Join("..", "..", root) // test runs in internal/docgate
		t.Run(root, func(t *testing.T) {
			missing, err := Missing(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range missing {
				t.Error(m)
			}
		})
	}
}

// TestMissingDetects pins the checker itself against a synthetic package
// with every kind of gap, so a silent parser regression cannot turn the
// gate into a no-op.
func TestMissingDetects(t *testing.T) {
	dir := t.TempDir()
	src := `package gapped

type Exported struct{}

func (e *Exported) Method() {}

func Function() {}

const Const = 1

var Var = 2

type unexported struct{}

func (u *unexported) Fine() {}

func private() {}
`
	if err := os.WriteFile(filepath.Join(dir, "gapped.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err := Missing(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"package gapped", "type Exported", "method Exported.Method", "function Function", "const Const", "var Var"}
	for _, want := range wants {
		found := false
		for _, m := range missing {
			if strings.Contains(m, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("checker missed the undocumented %q:\n%s", want, strings.Join(missing, "\n"))
		}
	}
	if n := len(missing); n != len(wants) {
		t.Errorf("checker reported %d findings, want %d (unexported identifiers must not count):\n%s",
			n, len(wants), strings.Join(missing, "\n"))
	}

	documented := `// Package clean is fully documented.
package clean

// Exported is documented.
type Exported struct{}

// Method is documented.
func (e *Exported) Method() {}

// Grouped doc covers the block.
const (
	A = 1
	B = 2
)
`
	clean := t.TempDir()
	if err := os.WriteFile(filepath.Join(clean, "clean.go"), []byte(documented), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err = Missing(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Errorf("false positives on a documented package:\n%s", strings.Join(missing, "\n"))
	}
}

// TestNoUnusedExports is the unused-export gate: no exported identifier
// under internal/ may lack a non-test reference (docgate.Unused), and
// the allowlist may name nothing that is gone.
func TestNoUnusedExports(t *testing.T) {
	found, err := Unused(filepath.Join("..", ".."), UnusedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range found {
		t.Error(m)
	}
}

// TestUnusedDetects pins the unused-export check against a synthetic
// module: a func only a test calls and a func nobody calls are reported,
// a func a command calls and a method of a type the root package aliases
// are not.
func TestUnusedDetects(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/p/p.go", `package p

func TestOnly() {}

func Unreferenced() {}

func Used() {}

type T struct{}

func (T) Public() {}
`)
	write("internal/p/p_test.go", `package p

import "testing"

func TestX(t *testing.T) { TestOnly() }
`)
	write("cmd/x/main.go", `package main

import "m/internal/p"

func main() { p.Used() }
`)
	write("m.go", `package m

import "m/internal/p"

type T = p.T
`)
	found, err := Unused(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"function internal/p.TestOnly ", "function internal/p.Unreferenced "}
	if len(found) != len(wants) {
		t.Fatalf("checker reported %d findings, want %d:\n%s", len(found), len(wants), strings.Join(found, "\n"))
	}
	for i, want := range wants {
		if !strings.Contains(found[i], want) {
			t.Errorf("finding %d = %q, want one naming %q", i, found[i], want)
		}
	}
}
