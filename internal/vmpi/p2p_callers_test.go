package vmpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoPointToPointOutsideVmpi keeps every solver path on the rendezvous:
// no non-test file of internal/ or cmd/ — vmpi itself and the
// analyzers' testdata aside — names vmpi's point-to-point calls (Send,
// SendVal, Recv, RecvVal, SendOwned or any Sendrecv). A redistribution
// whose messages have a fixed schedule is a Replay; loose messages would
// let the host order of arrivals reach a result.
func TestNoPointToPointOutsideVmpi(t *testing.T) {
	banned := func(name string) bool {
		switch name {
		case "Send", "SendVal", "Recv", "RecvVal", "SendOwned":
			return true
		}
		return strings.HasPrefix(name, "Sendrecv")
	}
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || path == filepath.Join("..", "..", "internal", "vmpi") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			name := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/vmpi" {
					name = "vmpi"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			if name == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && banned(sel.Sel.Name) {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						t.Errorf("%s: %s.%s: point-to-point outside vmpi; use a collective or a vmpi.Replay",
							fset.Position(sel.Pos()), name, sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("scanned %d non-test files; the walk missed the tree", files)
	}
}
