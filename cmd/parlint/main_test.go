package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestAllowCommentsNameLiveAnalyzers: every //parlint:allow waiver in the
// tree's Go files (fixtures under testdata aside) names an analyzer parlint
// runs. The driver ignores a waiver whose analyzer it does not run, so one
// left behind by a deleted analyzer would otherwise stay unnoticed.
func TestAllowCommentsNameLiveAnalyzers(t *testing.T) {
	live := map[string]bool{}
	for _, a := range analyzers {
		live[a.Name] = true
	}
	fset := token.NewFileSet()
	waivers := 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || path != "../.." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range analysis.AllowNames(c.Text) {
					waivers++
					if !live[name] {
						t.Errorf("%s: //parlint:allow names %q, which parlint does not run", fset.Position(c.Pos()), name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if waivers == 0 {
		t.Fatal("no //parlint:allow waiver found: the walk missed the tree")
	}
}
