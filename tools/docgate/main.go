// Command docgate runs the repo's two API gates (see internal/docgate)
// from the module root: the godoc-coverage gate over package directories
// given as arguments, and the unused-export gate over the whole module.
// It prints one line per finding and exits nonzero when any gate fails:
//
//	go run ./tools/docgate internal/fabric internal/nic internal/mpi
//
// With no arguments it gates the same package set the docgate test
// suite does.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"pioman/internal/docgate"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = docgate.GatedDirsFromRoot()
	}
	failed := false
	report := func(findings []string, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
		for _, m := range findings {
			fmt.Println(m)
			failed = true
		}
	}
	for _, dir := range dirs {
		report(docgate.Missing(filepath.Clean(dir)))
	}
	report(docgate.Unused(".", docgate.UnusedAllowlist))
	if failed {
		os.Exit(1)
	}
	fmt.Printf("docgate: %d packages fully documented, no unused exports under internal/\n", len(dirs))
}
