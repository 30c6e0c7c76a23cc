// Command repolint is the repo's single lint entrypoint: a multichecker
// driving the custom analyzers that enforce the reproduction's cross-cutting
// contracts (determinism of the measured packages, counted-I/O accounting,
// pin/unpin and latched-error lifecycle, allocation-free hot paths) together
// with self-contained reimplementations of the staticcheck-class standard
// passes (nilness, unusedresult, sortslice).
//
// Usage:
//
//	go run ./cmd/repolint ./...          # lint every package
//	go run ./cmd/repolint ./internal/join ./internal/rtree
//	go run ./cmd/repolint -list          # list analyzers
//
// Suppress a documented false positive at the site with
//
//	//repolint:ignore <analyzer> <reason>
//
// on the diagnostic's line or the line above; the reason is mandatory.
// See DESIGN.md "Statically enforced invariants" for the analyzer contracts
// and the annotation grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repolint [-list] <package patterns>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	n, err := run(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// run lints the packages matched by patterns (resolved against the current
// module) and returns the number of findings printed.
func run(patterns []string) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		return 0, err
	}
	paths, err := l.ExpandPatterns(patterns)
	if err != nil {
		return 0, err
	}
	findings := 0
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			return findings, err
		}
		diags, err := analysis.Run(p, analysis.All)
		if err != nil {
			return findings, err
		}
		for _, d := range diags {
			fmt.Println(d)
			findings++
		}
	}
	return findings, nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
