// Package analysis is a small, dependency-free static-analysis framework
// for this repository: a go/ast + go/types driver in the spirit of
// golang.org/x/tools/go/analysis, reduced to what the repo-specific
// analyzers under internal/analysis/... need.
//
// The driver is two-phase and interprocedural. Phase 1 walks every loaded
// package in dependency order and computes per-function fact summaries
// (FuncFacts in facts.go: does this function enter a collective, return
// the rank, read a nondeterminism source, allocate on every call, ...),
// seeded by intrinsic axioms for vmpi, hostpar, time, runtime and
// sync/atomic. Phase 2 re-runs the analyzers over the target packages with
// the completed global fact table, so a helper's behavior is visible at its
// call sites across package boundaries.
//
// The analyzers machine-check the contracts that the messaging layer and
// the host-parallel kernels otherwise state only in comments (the
// messaging layer's buffer-ownership protocol is checked at run time, by
// vmpi's -tags vmpidebug checker):
//
//   - determinism: no nondeterminism sources (map iteration order,
//     wall-clock reads, math/rand, atomics, GOMAXPROCS-dependent branches)
//     in hostpar kernel closures or the FMM / P2NFFT hot paths.
//   - collsym: no vmpi collective calls inside branches conditioned on the
//     rank (SPMD symmetry), including through rank-returning helpers.
//   - hotalloc: functions marked //parlint:hotalloc must not allocate on
//     every call (fresh composite literals, make/new, appends to fresh
//     backing, calls to always-allocating helpers).
//
// A diagnostic can be suppressed by a trailing or preceding line comment
// of the form
//
//	//parlint:allow <analyzer>[,<analyzer>...] [-- reason]
//
// which the driver honors on the diagnostic's line and on the line above.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the global interprocedural fact table computed in phase 1
	// over every loaded package (dependencies included); see facts.go.
	Facts *Facts

	diags *[]Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// NewInfo returns a types.Info with all maps the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// PkgIs reports whether pkg is the package called name, matching either the
// package name or the last import-path element. The loose match lets the
// analyzers recognize both the real packages (repro/internal/vmpi) and the
// fixture stubs used in their tests (vmpi).
func PkgIs(pkg *types.Package, name string) bool {
	if pkg == nil {
		return false
	}
	return pkg.Name() == name || path.Base(pkg.Path()) == name
}

// CalleeFunc resolves the function or method called by call, unwrapping
// parenthesized and explicitly instantiated callees. It returns nil for
// builtins, type conversions, and calls through function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// allowRe matches parlint allow comments: //parlint:allow a,b -- reason
var allowRe = regexp.MustCompile(`^//\s*parlint:allow\s+([A-Za-z0-9_,\- ]+?)\s*(?:--.*)?$`)

// AllowNames returns the analyzers a comment's text waives, or nil when it
// is no allow comment.
func AllowNames(comment string) []string {
	m := allowRe.FindStringSubmatch(comment)
	if m == nil {
		return nil
	}
	return strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' })
}

// suppressedLines collects, per analyzer name, the set of file:line keys on
// which diagnostics are suppressed by allow comments. A comment suppresses
// its own line and the following line (for comments placed above a
// statement).
func suppressedLines(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, name := range AllowNames(c.Text) {
					set := out[name]
					if set == nil {
						set = map[string]bool{}
						out[name] = set
					}
					set[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
					set[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = true
				}
			}
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to each package and returns the
// deduplicated, suppression-filtered findings in source order.
//
// The run is two-phase: phase 1 computes per-function fact summaries over
// every package — including FactsOnly dependency packages, which are
// type-checked for their facts but never report diagnostics — in the
// dependency order pkgs arrives in; phase 2 runs the analyzers with the
// completed table in Pass.Facts.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := computeFacts(pkgs)
	var all []Diagnostic
	for _, pkg := range pkgs {
		if pkg.FactsOnly {
			continue
		}
		suppressed := suppressedLines(pkg.Fset, pkg.Files)
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Facts:    facts,
				diags:    &diags,
			}
			a.Run(pass)
		}
		for _, d := range diags {
			key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
			if set := suppressed[d.Analyzer]; set != nil && set[key] {
				continue
			}
			all = append(all, d)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Analyzing both a package and its test variant duplicates findings in
	// the shared non-test files; keep one of each.
	dedup := all[:0]
	seen := map[string]bool{}
	for _, d := range all {
		key := d.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		dedup = append(dedup, d)
	}
	return dedup
}
