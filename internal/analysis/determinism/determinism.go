// Package determinism enforces the schedule-independence contract of the
// compute hot paths (see internal/hostpar's package comment): results must
// be bit-identical at any GOMAXPROCS, on any host, on every run.
//
// Two scopes are checked:
//
//   - Kernel closures: function literals passed to hostpar.For /
//     hostpar.ForTiles, in any package. Inside them the analyzer reports
//     every nondeterminism source — map iteration, wall-clock reads,
//     math/rand, sync/atomic, GOMAXPROCS / NumCPU reads — and any use of
//     the vmpi messaging layer, which is bound to the rank goroutine and
//     must never observe host concurrency.
//   - Hot packages: the FMM and P2NFFT solver packages as a whole (their
//     kernels feed virtual-time charges and physics that the paper's
//     figures depend on). There the analyzer reports map iteration,
//     wall-clock reads, math/rand, sync/atomic, and branching on
//     GOMAXPROCS / NumCPU.
//
// Iterating a map only to collect keys or values into a slice (a single
// append statement) is accepted: order-dependent work then happens after
// an explicit sort, as in the solvers' sortedKeys idiom. Test files are
// exempt — the contract binds production kernels, while tests legitimately
// use math/rand for fixtures.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "reports nondeterminism sources (map range, time.Now, math/rand, " +
		"sync/atomic, GOMAXPROCS branching) in hostpar kernel closures and " +
		"the FMM/P2NFFT/coupling hot paths",
	Run: run,
}

// hotPackages are checked in their entirety (package name or import-path
// base). The coupling pipeline sits on the hot path of every solver run
// (exchange strategy selection, restore, resort-index creation), so it is
// held to the same determinism bar as the solvers themselves. The obs
// package's views and exporters must be pure functions of the event
// stream — any nondeterminism there would break the byte-identical golden
// exports (wall-clock stamps enter events only via the injected vmpi
// clock, which the exporters exclude). The experiment scheduler (sched)
// guarantees figure output is byte-identical at any worker count, so it may
// not read the clock (callers inject one) or race on shared counters; the
// fft package's plan cache feeds bit-identical spectral kernels and is held
// to the same bar. The event-driven rank executor (rankexec) schedules the
// rank bodies themselves — any wall-clock read, racing atomic, or map-order
// dispatch there could leak the host schedule into execution order, so it
// is checked in its entirety as well. The elastic package remaps the full
// particle state across world resizes — its output must be a pure function
// of the pre-resize distribution (the resize goldens and the worker-count
// byte identity depend on it), so it joins the hot set too. The redist
// package plans every redistribution's round schedule and element routing
// — the memory-budget golden and the bounded/unbounded byte identity
// require a plan to be a pure function of the targets and the budget — so
// it is held to the same bar.
var hotPackages = []string{"fmm", "pnfft", "coupling", "obs", "sched", "fft", "rankexec", "elastic", "redist"}

func run(pass *analysis.Pass) {
	hot := false
	for _, name := range hotPackages {
		if analysis.PkgIs(pass.Pkg, name) {
			hot = true
		}
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		checkFile(pass, file, hot)
	}
}

type ranges []struct{ lo, hi token.Pos }

func (r ranges) contains(p token.Pos) bool {
	for _, iv := range r {
		if iv.lo <= p && p < iv.hi {
			return true
		}
	}
	return false
}

func checkFile(pass *analysis.Pass, file *ast.File, hot bool) {
	info := pass.Info

	// Pre-pass: the extents of kernel closures (function literals passed to
	// hostpar.For / hostpar.ForTiles, including nested literals, which the
	// positional check covers for free) and of branch conditions.
	var kernels, conds ranges
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(info, n)
			if fn != nil && analysis.PkgIs(fn.Pkg(), "hostpar") &&
				(fn.Name() == "For" || fn.Name() == "ForTiles") && len(n.Args) > 0 {
				if lit, ok := n.Args[len(n.Args)-1].(*ast.FuncLit); ok {
					kernels = append(kernels, struct{ lo, hi token.Pos }{lit.Pos(), lit.End()})
				}
			}
		case *ast.IfStmt:
			conds = append(conds, struct{ lo, hi token.Pos }{n.Cond.Pos(), n.Cond.End()})
		case *ast.SwitchStmt:
			if n.Tag != nil {
				conds = append(conds, struct{ lo, hi token.Pos }{n.Tag.Pos(), n.Tag.End()})
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				conds = append(conds, struct{ lo, hi token.Pos }{n.Cond.Pos(), n.Cond.End()})
			}
		}
		return true
	})

	where := func(p token.Pos) (inScope, inKernel bool) {
		k := kernels.contains(p)
		return hot || k, k
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			inScope, inKernel := where(n.Pos())
			if !inScope {
				return true
			}
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !analysis.IsCollectOnly(info, n.Body) {
					ctx := "in a hot path"
					if inKernel {
						ctx = "in a hostpar kernel closure"
					}
					pass.Reportf(n.Pos(), "map iteration order is nondeterministic %s; collect keys and sort (sortedKeys idiom), or iterate a slice", ctx)
				}
			}
		case *ast.CallExpr:
			inScope, inKernel := where(n.Pos())
			if !inScope {
				return true
			}
			fn := analysis.CalleeFunc(info, n)
			if fn == nil {
				return true
			}
			switch {
			case pkgFunc(fn, "time", "Now") || pkgFunc(fn, "time", "Since"):
				pass.Reportf(n.Pos(), "time.%s reads the wall clock; hot-path results must not depend on real time", fn.Name())
			case pkgFunc(fn, "runtime", "GOMAXPROCS") || pkgFunc(fn, "runtime", "NumCPU"):
				if inKernel {
					pass.Reportf(n.Pos(), "runtime.%s inside a hostpar kernel closure makes the kernel host-dependent", fn.Name())
				} else if conds.contains(n.Pos()) {
					pass.Reportf(n.Pos(), "branching on runtime.%s makes the hot path depend on the host core count", fn.Name())
				}
			case inKernel && analysis.PkgIs(fn.Pkg(), "vmpi"):
				pass.Reportf(n.Pos(), "vmpi call inside a hostpar kernel closure: communicators are bound to the rank goroutine; charge virtual cost outside the parallel section")
			case nondetCallee(pass, fn):
				ctx := "in a hot path"
				if inKernel {
					ctx = "in a hostpar kernel closure"
				}
				pass.Reportf(n.Pos(), "call to %s, which transitively reads a nondeterminism source (wall clock, atomics, or unsorted map iteration), %s", fn.Name(), ctx)
			}
		case *ast.SelectorExpr:
			inScope, _ := where(n.Pos())
			if !inScope {
				return true
			}
			if obj := info.Uses[n.Sel]; obj != nil && obj.Pkg() != nil {
				if analysis.PkgIs(obj.Pkg(), "rand") {
					pass.Reportf(n.Pos(), "math/rand in a hot path: randomness must come from seeded generators outside the kernels")
				} else if analysis.PkgIs(obj.Pkg(), "atomic") {
					pass.Reportf(n.Pos(), "sync/atomic in a hot path: racing accumulation is schedule-dependent; reduce per-tile partials in tile order instead")
				}
			}
		}
		return true
	})
}

// pkgFunc reports whether fn is the package-level function pkg.name.
func pkgFunc(fn *types.Func, pkg, name string) bool {
	return fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil && analysis.PkgIs(fn.Pkg(), pkg)
}

// nondetCallee reports whether calling fn drags a nondeterminism source
// into the hot scope: its fact summary is transitively nondeterministic
// and it is defined outside the hot set and outside the contracted
// layers. The vmpi clock injection and hostpar's scheduling counters are
// documented exceptions, and direct sources (time, atomic, rand,
// runtime) are reported by the lexical cases above with a sharper
// message. Hot-set callees are held to the bar where they are defined,
// not at every call site.
func nondetCallee(pass *analysis.Pass, fn *types.Func) bool {
	for _, name := range append([]string{"vmpi", "hostpar", "time", "atomic", "rand", "runtime"}, hotPackages...) {
		if analysis.PkgIs(fn.Pkg(), name) {
			return false
		}
	}
	return pass.Facts.Of(fn).Nondet
}
