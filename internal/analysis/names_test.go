package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestVmpiNameListsMatchPackage: every name the analyzers treat as a vmpi
// collective is an exported top-level function of internal/vmpi's non-test
// files, so the list cannot go stale silently when vmpi drops or renames a
// call.
func TestVmpiNameListsMatchPackage(t *testing.T) {
	files, err := filepath.Glob("../vmpi/*.go")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[fd.Name.Name] = true
			}
		}
	}
	if len(funcs) == 0 {
		t.Fatal("no exported functions found in ../vmpi")
	}
	for name := range analysis.VmpiCollectives {
		if !funcs[name] {
			t.Errorf("analysis.VmpiCollectives lists %q, which is not an exported top-level function of internal/vmpi", name)
		}
	}
}
