// Command parlint runs the repository's custom static analyzers (see
// internal/analysis) over the packages matched by the given `go list`
// patterns.
//
// Usage:
//
//	parlint [-list] [-json] [packages]
//
// With no arguments it analyzes ./... . Exit status is 0 when the tree is
// clean, 1 when diagnostics were reported, and 2 when loading or
// type-checking failed. Individual findings can be waived with a
// `//parlint:allow <analyzer> -- reason` comment on or above the line.
//
// With -json, findings are emitted as a single JSON array of objects
// {file, line, column, analyzer, message}, sorted by (file, line, column,
// analyzer, message) — a stable order suitable for golden-diffing and CI
// artifacts. Exit codes are unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/collsym"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/hotalloc"
)

var analyzers = []*analysis.Analyzer{
	collsym.Analyzer,
	determinism.Analyzer,
	hotalloc.Analyzer,
}

// finding is the machine-readable form of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: parlint [-list] [-json] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parlint: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.RunAnalyzers(pkgs, analyzers)
	if *asJSON {
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				File:     relpath(d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "parlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relpath(d.Pos.Filename)
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// relpath makes filename relative to the working directory when
// possible, so findings are repo-relative in CI regardless of the
// checkout location.
func relpath(filename string) string {
	wd, err := os.Getwd()
	if err != nil {
		return filename
	}
	rel, err := filepath.Rel(wd, filename)
	if err != nil || len(rel) >= 2 && rel[:2] == ".." {
		return filename
	}
	return rel
}
