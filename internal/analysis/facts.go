package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file implements the interprocedural layer of the framework: phase 1
// of RunAnalyzers walks every loaded package in dependency order (the order
// `go list -deps` emits them: dependencies first) and computes one FuncFacts
// summary per function. Phase 2 then re-runs the analyzers with the whole
// fact table in Pass.Facts, so a check can follow a value, a buffer, or a
// blocking operation across a call — including across package boundaries —
// without whole-program SSA. The design mirrors x/tools' analysis facts,
// reduced to a monotone bit-set per function so a per-package fixpoint
// converges in a handful of passes.
//
// Facts are keyed by stable strings ("pkg/path.Func",
// "pkg/path.Recv.Method") rather than *types.Func identity: the same
// function is a source-checked object in its own package and an
// export-data object in its importers, and only the key survives that
// boundary.

// FuncFacts is the interprocedural summary of one function. All boolean
// facts are monotone (false -> true) so the per-package fixpoint in
// ComputeFacts terminates.
type FuncFacts struct {
	// EntersCollective: the function (transitively) executes a vmpi
	// collective, so calling it is itself a collective entry for SPMD
	// symmetry purposes (collsym).
	EntersCollective bool
	// Communicates: the function (transitively) calls into the vmpi
	// messaging layer at all, collective or point-to-point.
	Communicates bool
	// RankResult: the function's result is derived from the calling rank
	// (Comm.Rank / Comm.WorldRank), so branching on it is rank-dependent.
	RankResult bool
	// SubResult: the result is derived from a rank-dependent
	// sub-communicator (Comm.Split with a rank-dependent color).
	SubResult bool
	// ParamResult: bit i is set when the result is derived from parameter
	// i, letting rank dependence flow through helpers like
	// XRange(c.Rank()).
	ParamResult uint64
	// BlocksHost: the function (transitively) performs a host-blocking
	// operation — time.Sleep, bare channel ops, sync waits, OS I/O.
	// Virtual blocking through vmpi does not count: the event engine
	// parks those.
	BlocksHost bool
	// Nondet: the function (transitively) reads a nondeterminism source
	// (wall clock, sync/atomic, GOMAXPROCS/NumCPU, unsorted map
	// iteration). math/rand is deliberately excluded: seeded generators
	// behind a package boundary are deterministic by contract, and the
	// determinism analyzer still flags direct rand use in hot scopes.
	Nondet bool
	// AllocatesAlways: every call allocates (a make/new/composite-literal
	// allocation, or a call to an always-allocating callee, before the
	// first branch or early exit). Conditional allocators — the
	// cache-miss fill idiom `if cached { return } ...make...` — do not
	// set this, which is what lets hotalloc accept plan caches.
	AllocatesAlways bool
	// AcquiresBudget / ReleasesBudget: the function (transitively) calls
	// hostpar Budget.Acquire/TryAcquire, resp. Budget.Release.
	AcquiresBudget bool
	ReleasesBudget bool
	// ReleasesBudgetParam: bit i set when the budget passed as parameter
	// i is released (directly or through a callee).
	ReleasesBudgetParam uint64
	// TransfersParam / ReleasesParam: bit i set when the slice passed as
	// parameter i is relinquished via vmpi.SendOwned/AlltoallOwned, resp.
	// released via vmpi.Release/ReleaseBlocks — possibly through further
	// helpers.
	TransfersParam uint64
	ReleasesParam  uint64
	// SharedResult: the function returns a shared read-only broadcast view
	// — the result of vmpi.Bcast/Allreduce/Allgather, directly, through a
	// local, or through a further helper — which callers may read and
	// Release but never write or relinquish.
	SharedResult bool
	// HotAlloc: the declaration carries a //parlint:hotalloc directive,
	// opting it into the hotalloc analyzer's zero-allocation contract.
	HotAlloc bool
	// Callees holds the fact keys of statically resolved callees, minus
	// calls into the rank-blessed packages (vmpi, rankexec, hostpar,
	// obs). It drives the rank-reachability closure for parkblock.
	Callees []string
}

func (f *FuncFacts) merge(o FuncFacts) bool {
	changed := false
	or := func(dst *bool, v bool) {
		if v && !*dst {
			*dst = true
			changed = true
		}
	}
	orBits := func(dst *uint64, v uint64) {
		if v&^*dst != 0 {
			*dst |= v
			changed = true
		}
	}
	or(&f.EntersCollective, o.EntersCollective)
	or(&f.Communicates, o.Communicates)
	or(&f.RankResult, o.RankResult)
	or(&f.SubResult, o.SubResult)
	orBits(&f.ParamResult, o.ParamResult)
	or(&f.BlocksHost, o.BlocksHost)
	or(&f.Nondet, o.Nondet)
	or(&f.AllocatesAlways, o.AllocatesAlways)
	or(&f.AcquiresBudget, o.AcquiresBudget)
	or(&f.ReleasesBudget, o.ReleasesBudget)
	orBits(&f.ReleasesBudgetParam, o.ReleasesBudgetParam)
	orBits(&f.TransfersParam, o.TransfersParam)
	orBits(&f.ReleasesParam, o.ReleasesParam)
	or(&f.SharedResult, o.SharedResult)
	or(&f.HotAlloc, o.HotAlloc)
	if len(o.Callees) > len(f.Callees) {
		f.Callees = o.Callees
		changed = true
	}
	return changed
}

// Facts is the global fact table produced by phase 1.
type Facts struct {
	fns map[string]*FuncFacts
	// rankRoots are the fact keys of functions passed to vmpi.Run — the
	// entry points of rank-task code.
	rankRoots []string
	// reachable is the closure of rankRoots over Callees.
	reachable map[string]bool
}

// FuncKey returns the stable cross-package key of fn:
// "pkg/path.Name" for package functions, "pkg/path.Recv.Name" for
// methods. Generic instantiations share their origin's key.
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	fn = fn.Origin()
	pkg := "_"
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		} else {
			name = "_." + name
		}
	}
	return pkg + "." + name
}

// Of returns fn's summary: the axiomatic one for the vmpi and hostpar
// layers, the computed one otherwise (zero value when unknown).
func (f *Facts) Of(fn *types.Func) FuncFacts {
	if fn == nil {
		return FuncFacts{}
	}
	if ff, ok := intrinsicFacts(fn); ok {
		return ff
	}
	if f == nil {
		return FuncFacts{}
	}
	if ff := f.fns[FuncKey(fn)]; ff != nil {
		return *ff
	}
	return FuncFacts{}
}

// RankReachable reports whether fn is reachable from a rank-task entry
// point (a function passed to vmpi.Run), i.e. whether it runs on an event
// engine run slot.
func (f *Facts) RankReachable(fn *types.Func) bool {
	if f == nil || fn == nil {
		return false
	}
	return f.reachable[FuncKey(fn)]
}

// rankBlessedPkgs are the layers allowed to block a run slot (they
// implement the park/unpark protocol and the instrumented clock): calls
// into them end the rank-reachability traversal, and parkblock never
// reports inside them.
var rankBlessedPkgs = []string{"vmpi", "rankexec", "hostpar", "obs"}

// RankBlessedPkg reports whether pkg is one of the packages exempt from
// the rank-task blocking contract.
func RankBlessedPkg(pkg *types.Package) bool {
	for _, name := range rankBlessedPkgs {
		if PkgIs(pkg, name) {
			return true
		}
	}
	return false
}

// VmpiCollectives are the vmpi package-level operations every rank of a
// communicator must enter symmetrically (shared by collsym and the fact
// intrinsics).
var VmpiCollectives = map[string]bool{
	"Barrier": true, "Bcast": true, "Reduce": true, "Allreduce": true,
	"AllreduceVal": true, "Gather": true, "GatherBlocks": true,
	"Allgather": true, "AllgatherBlocks": true, "ScatterBlocks": true,
	"Alltoall": true, "AlltoallOwned": true, "Scan": true, "Exscan": true,
}

// VmpiSharedResults are the vmpi collectives whose result is a shared
// read-only view of one broadcast buffer (see internal/vmpi/pool.go).
var VmpiSharedResults = map[string]bool{"Bcast": true, "Allreduce": true, "Allgather": true}

// SharedViewCall returns the callee when e is a call — possibly resliced —
// of a function whose result is a shared read-only broadcast view, else
// nil.
func (f *Facts) SharedViewCall(info *types.Info, e ast.Expr) (*types.Func, *ast.CallExpr) {
	e = ast.Unparen(e)
	if se, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(se.X)
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if fn := CalleeFunc(info, call); fn != nil && f.Of(fn).SharedResult {
			return fn, call
		}
	}
	return nil, nil
}

// VmpiCollectiveMethods are Comm methods with collective semantics.
var VmpiCollectiveMethods = map[string]bool{"Split": true, "Dup": true}

// intrinsicFacts axiomatizes the vmpi messaging layer and the hostpar
// budget instead of trusting facts computed from their sources: their
// blocking is virtual (parked by the engine) or by design, and their
// results follow documented contracts (collectives return
// rank-symmetric values; Rank returns the rank). Matching is loose
// (PkgIs) so fixture stubs axiomatize identically.
func intrinsicFacts(fn *types.Func) (FuncFacts, bool) {
	if fn == nil || fn.Pkg() == nil {
		return FuncFacts{}, false
	}
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	method := sig != nil && sig.Recv() != nil
	switch {
	case PkgIs(fn.Pkg(), "vmpi"):
		ff := FuncFacts{Communicates: true}
		if method && (name == "Rank" || name == "WorldRank") {
			return FuncFacts{RankResult: true}, true
		}
		if (!method && VmpiCollectives[name]) || (method && VmpiCollectiveMethods[name]) {
			ff.EntersCollective = true
		}
		ff.SharedResult = !method && VmpiSharedResults[name]
		return ff, true
	case PkgIs(fn.Pkg(), "hostpar"):
		if method && isBudgetRecv(sig.Recv().Type()) {
			switch name {
			case "Acquire", "TryAcquire":
				return FuncFacts{AcquiresBudget: true}, true
			case "Release":
				return FuncFacts{ReleasesBudget: true}, true
			}
		}
		return FuncFacts{}, true
	case PkgIs(fn.Pkg(), "time"):
		switch name {
		case "Sleep":
			return FuncFacts{BlocksHost: true}, true
		case "Now", "Since":
			return FuncFacts{Nondet: true}, true
		}
		return FuncFacts{}, true
	case PkgIs(fn.Pkg(), "runtime"):
		if name == "GOMAXPROCS" || name == "NumCPU" {
			return FuncFacts{Nondet: true}, true
		}
		return FuncFacts{}, true
	case PkgIs(fn.Pkg(), "atomic"):
		return FuncFacts{Nondet: true}, true
	case PkgIs(fn.Pkg(), "os") || PkgIs(fn.Pkg(), "net"):
		return FuncFacts{BlocksHost: true}, true
	case PkgIs(fn.Pkg(), "fmt"):
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return FuncFacts{BlocksHost: true}, true
		}
		return FuncFacts{}, true
	case PkgIs(fn.Pkg(), "sync"):
		if method {
			switch name {
			case "Wait", "Lock", "RLock":
				// Blocking, but the leaf-critical-section nuance is
				// handled where the call appears (parkblock); as a
				// callee fact, any of these blocks.
				return FuncFacts{BlocksHost: true}, true
			}
		}
		return FuncFacts{}, true
	}
	return FuncFacts{}, false
}

// isBudgetRecv reports whether t is (a pointer to) the hostpar Budget
// type or the rankexec Budget capacity interface — the two spellings of
// the shared host-capacity protocol.
func isBudgetRecv(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Budget" &&
		(PkgIs(n.Obj().Pkg(), "hostpar") || PkgIs(n.Obj().Pkg(), "rankexec"))
}

// IntrinsicBlocker reports whether fn is axiomatized as host-blocking at
// the call site: time.Sleep, os / net I/O, fmt terminal output. sync
// primitives are excluded — parkblock applies the leaf-critical-section
// rule to those where the call appears instead of reporting every lock.
func IntrinsicBlocker(fn *types.Func) bool {
	if fn == nil || PkgIs(fn.Pkg(), "sync") {
		return false
	}
	ff, ok := intrinsicFacts(fn)
	return ok && ff.BlocksHost
}

// IsBudgetMethod reports whether call invokes the named method on the
// hostpar Budget type.
func IsBudgetMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isBudgetRecv(sig.Recv().Type())
}

// ComputeFacts runs phase 1 over pkgs (which must be in dependency
// order, dependencies first — the order Load returns) and returns the
// global fact table with the rank-reachability closure resolved.
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{fns: map[string]*FuncFacts{}}
	for _, pkg := range pkgs {
		computePkgFacts(pkg, f)
	}
	f.reachable = map[string]bool{}
	work := append([]string(nil), f.rankRoots...)
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if k == "" || f.reachable[k] {
			continue
		}
		f.reachable[k] = true
		if ff := f.fns[k]; ff != nil {
			work = append(work, ff.Callees...)
		}
	}
	return f
}

// computePkgFacts iterates the package's function declarations to a
// fixpoint: facts only ever turn on, so the loop is bounded by the
// number of fact bits times the number of declarations. Cross-package
// calls resolve against summaries already in f (dependency order) and
// in-package recursion converges across iterations.
func computePkgFacts(pkg *Package, f *Facts) {
	type fnDecl struct {
		key  string
		decl *ast.FuncDecl
	}
	var decls []fnDecl
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			key := FuncKey(fn)
			decls = append(decls, fnDecl{key, fd})
			if f.fns[key] == nil {
				f.fns[key] = &FuncFacts{}
			}
		}
	}
	for iter := 0; iter < 1+len(decls); iter++ {
		changed := false
		for _, d := range decls {
			got := scanFuncFacts(pkg, d.decl, f)
			if f.fns[d.key].merge(got) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// depSet is the abstract provenance of an expression's value.
type depSet struct {
	rank   bool   // derived from Comm.Rank / Comm.WorldRank
	sub    bool   // derived from a rank-dependent sub-communicator
	params uint64 // derived from parameter i (bit i)
}

func (d depSet) any() bool { return d.rank || d.sub || d.params != 0 }

func (d depSet) union(o depSet) depSet {
	return depSet{d.rank || o.rank, d.sub || o.sub, d.params | o.params}
}

// DepTracker evaluates which values inside one function body derive from
// the calling rank, from rank-dependent sub-communicators, or from the
// function's parameters — the machinery behind the RankResult /
// SubResult / ParamResult facts, exported so collsym and hotalloc can
// ask the same questions at use sites.
type DepTracker struct {
	info     *types.Info
	facts    *Facts
	paramIdx map[types.Object]int
	recvObj  types.Object
	varDeps  map[types.Object]depSet
}

// NewDepTracker builds the dependence map of a function: decl carries
// the parameter list (nil for a bare body such as a function literal)
// and body is the scanned subtree. facts may be nil for purely lexical
// tracking.
func NewDepTracker(info *types.Info, facts *Facts, decl *ast.FuncDecl, body ast.Node) *DepTracker {
	t := &DepTracker{
		info:     info,
		facts:    facts,
		paramIdx: map[types.Object]int{},
		varDeps:  map[types.Object]depSet{},
	}
	if decl != nil && decl.Type.Params != nil {
		i := 0
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && i < 64 {
					t.paramIdx[obj] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	if decl != nil && decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		t.recvObj = info.Defs[decl.Recv.List[0].Names[0]]
	}
	// Local dataflow: propagate deps through assignments until stable.
	// Chains are short, so a small bounded loop suffices.
	for pass := 0; pass < 4; pass++ {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						changed = t.assign(n.Lhs[i], t.Deps(n.Rhs[i])) || changed
					}
				} else if len(n.Rhs) == 1 {
					d := t.Deps(n.Rhs[0])
					for _, lhs := range n.Lhs {
						changed = t.assign(lhs, d) || changed
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					var d depSet
					if len(n.Values) == len(n.Names) {
						d = t.Deps(n.Values[i])
					} else if len(n.Values) == 1 {
						d = t.Deps(n.Values[0])
					}
					if d.any() {
						if obj := t.info.Defs[name]; obj != nil {
							old := t.varDeps[obj]
							nd := old.union(d)
							if nd != old {
								t.varDeps[obj] = nd
								changed = true
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return t
}

func (t *DepTracker) assign(lhs ast.Expr, d depSet) bool {
	if !d.any() {
		return false
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := t.info.Defs[id]
	if obj == nil {
		obj = t.info.Uses[id]
	}
	if obj == nil {
		return false
	}
	old := t.varDeps[obj]
	nd := old.union(d)
	if nd == old {
		return false
	}
	t.varDeps[obj] = nd
	return true
}

// Deps returns the provenance of e.
func (t *DepTracker) Deps(e ast.Expr) depSet {
	switch e := e.(type) {
	case nil:
		return depSet{}
	case *ast.Ident:
		obj := t.info.Uses[e]
		if obj == nil {
			obj = t.info.Defs[e]
		}
		if obj == nil {
			return depSet{}
		}
		var d depSet
		if i, ok := t.paramIdx[obj]; ok {
			d.params |= 1 << uint(i)
		}
		return d.union(t.varDeps[obj])
	case *ast.ParenExpr:
		return t.Deps(e.X)
	case *ast.SelectorExpr:
		// A field of a sub-communicator-scoped value is itself
		// sub-scoped (l.N where l came from Distribute(sub, ...)).
		if sel, ok := t.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return t.Deps(e.X)
		}
		if obj := t.info.Uses[e.Sel]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				return t.Deps(e.X)
			}
		}
		return depSet{}
	case *ast.CallExpr:
		return t.callDeps(e)
	case *ast.BinaryExpr:
		return t.Deps(e.X).union(t.Deps(e.Y))
	case *ast.UnaryExpr:
		return t.Deps(e.X)
	case *ast.StarExpr:
		return t.Deps(e.X)
	case *ast.IndexExpr:
		return t.Deps(e.X).union(t.Deps(e.Index))
	case *ast.IndexListExpr:
		return t.Deps(e.X)
	case *ast.SliceExpr:
		return t.Deps(e.X)
	case *ast.TypeAssertExpr:
		return t.Deps(e.X)
	case *ast.CompositeLit:
		var d depSet
		for _, el := range e.Elts {
			d = d.union(t.Deps(el))
		}
		return d
	}
	return depSet{}
}

func (t *DepTracker) callDeps(call *ast.CallExpr) depSet {
	fn := CalleeFunc(t.info, call)
	if fn == nil {
		// Builtins and function values: provenance of the operands.
		var d depSet
		for _, a := range call.Args {
			d = d.union(t.Deps(a))
		}
		return d
	}
	sig, _ := fn.Type().(*types.Signature)
	method := sig != nil && sig.Recv() != nil
	if PkgIs(fn.Pkg(), "vmpi") {
		if method && (fn.Name() == "Rank" || fn.Name() == "WorldRank") {
			return depSet{rank: true}
		}
		if method && fn.Name() == "Split" {
			// Split with a rank-dependent color partitions the
			// communicator by rank: the result is a rank-scoped
			// sub-communicator.
			var d depSet
			for _, a := range call.Args {
				d = d.union(t.Deps(a))
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				d = d.union(t.Deps(sel.X))
			}
			if d.rank || d.sub {
				return depSet{sub: true}
			}
			return depSet{}
		}
		// Collectives return rank-symmetric values; point-to-point
		// results are data, not rank identity.
		return depSet{}
	}
	ff := t.facts.Of(fn)
	var d depSet
	if ff.RankResult {
		d.rank = true
	}
	if ff.SubResult {
		d.sub = true
	}
	for i, a := range call.Args {
		if i < 64 && ff.ParamResult&(1<<uint(i)) != 0 {
			d = d.union(t.Deps(a))
		}
	}
	// A call on (or taking) a sub-communicator-scoped value yields
	// sub-scoped results: h := Init(sub); h.Run(...) stays sub-scoped.
	var operands depSet
	for _, a := range call.Args {
		operands = operands.union(t.Deps(a))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && method {
		operands = operands.union(t.Deps(sel.X))
	}
	if operands.sub {
		d.sub = true
	}
	return d
}

// RankDependent reports whether e's value depends on the calling rank
// (directly or through locals and helper results).
func (t *DepTracker) RankDependent(e ast.Expr) bool { return t.Deps(e).rank }

// SubScoped reports whether e derives from a rank-dependent
// sub-communicator.
func (t *DepTracker) SubScoped(e ast.Expr) bool { return t.Deps(e).sub }

// ParamDerived reports whether e derives from a parameter or the
// receiver of the enclosing declaration.
func (t *DepTracker) ParamDerived(e ast.Expr) bool {
	if t.Deps(e).params != 0 {
		return true
	}
	if t.recvObj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && t.info.Uses[id] == t.recvObj {
			found = true
		}
		return !found
	})
	return found
}

// hasHotAllocDirective reports whether the declaration's doc comment
// carries a //parlint:hotalloc line.
func hasHotAllocDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), "//parlint:hotalloc") {
			return true
		}
	}
	return false
}

// scanFuncFacts computes one function's summary from its body plus the
// facts already known for its callees.
func scanFuncFacts(pkg *Package, decl *ast.FuncDecl, f *Facts) FuncFacts {
	info := pkg.Info
	out := FuncFacts{HotAlloc: hasHotAllocDirective(decl)}
	tracker := NewDepTracker(info, f, decl, decl.Body)

	// Parameter objects by index, for the buffer/budget param facts.
	paramAt := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		obj := info.Uses[id]
		if obj == nil {
			return 0, false
		}
		i, ok := tracker.paramIdx[obj]
		return i, ok
	}

	// Locals bound (anywhere in the body) to a shared broadcast view, so
	// `all := vmpi.Allgather(...); return all` summarizes like the direct
	// return. Two rounds cover a local aliasing another local.
	sharedVars := map[types.Object]bool{}
	sharedExpr := func(e ast.Expr) bool {
		if fn, _ := f.SharedViewCall(info, e); fn != nil {
			return true
		}
		e = ast.Unparen(e)
		if se, ok := e.(*ast.SliceExpr); ok {
			e = ast.Unparen(se.X)
		}
		id, ok := e.(*ast.Ident)
		return ok && sharedVars[info.Uses[id]]
	}
	for round := 0; round < 2; round++ {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || !sharedExpr(as.Rhs[i]) {
					continue
				}
				if obj := info.ObjectOf(id); obj != nil {
					sharedVars[obj] = true
				}
			}
			return true
		})
	}

	seenCallee := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			out.BlocksHost = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				out.BlocksHost = true
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				out.BlocksHost = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					if !IsCollectOnly(info, n.Body) {
						out.Nondet = true
					}
				case *types.Chan:
					out.BlocksHost = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				d := tracker.Deps(r)
				if d.rank {
					out.RankResult = true
				}
				if d.sub {
					out.SubResult = true
				}
				out.ParamResult |= d.params
				if len(n.Results) == 1 && sharedExpr(r) {
					out.SharedResult = true
				}
			}
		case *ast.CallExpr:
			fn := CalleeFunc(info, n)
			if fn == nil {
				return true
			}
			ff := f.Of(fn)
			out.Communicates = out.Communicates || ff.Communicates
			out.EntersCollective = out.EntersCollective || ff.EntersCollective
			out.AcquiresBudget = out.AcquiresBudget || ff.AcquiresBudget
			out.ReleasesBudget = out.ReleasesBudget || ff.ReleasesBudget
			blessed := RankBlessedPkg(fn.Pkg())
			if ff.BlocksHost && !blessed {
				out.BlocksHost = true
			}
			if ff.Nondet && !PkgIs(fn.Pkg(), "vmpi") && !PkgIs(fn.Pkg(), "hostpar") {
				out.Nondet = true
			}
			// Param-indexed facts: a parameter forwarded into a
			// consuming position inherits the consumption.
			if PkgIs(fn.Pkg(), "vmpi") {
				switch fn.Name() {
				case "SendOwned", "AlltoallOwned":
					if len(n.Args) > 1 {
						if i, ok := paramAt(n.Args[1]); ok {
							out.TransfersParam |= 1 << uint(i)
						}
					}
				case "Release", "ReleaseBlocks":
					if len(n.Args) > 0 {
						if i, ok := paramAt(n.Args[0]); ok {
							out.ReleasesParam |= 1 << uint(i)
						}
					}
				}
			} else {
				for j, a := range n.Args {
					if j >= 64 {
						break
					}
					i, ok := paramAt(a)
					if !ok {
						continue
					}
					if ff.TransfersParam&(1<<uint(j)) != 0 {
						out.TransfersParam |= 1 << uint(i)
					}
					if ff.ReleasesParam&(1<<uint(j)) != 0 {
						out.ReleasesParam |= 1 << uint(i)
					}
					if ff.ReleasesBudgetParam&(1<<uint(j)) != 0 {
						out.ReleasesBudgetParam |= 1 << uint(i)
					}
				}
			}
			// Direct budget traffic. The syntactic check also covers the
			// rankexec Budget interface, whose methods have no bodies to
			// scan and no hostpar intrinsic.
			if IsBudgetMethod(info, n, "Acquire") || IsBudgetMethod(info, n, "TryAcquire") {
				out.AcquiresBudget = true
			}
			// Budget release of a parameter: func put(b *Budget) { b.Release() }.
			if IsBudgetMethod(info, n, "Release") {
				out.ReleasesBudget = true
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if i, ok := paramAt(sel.X); ok {
						out.ReleasesBudgetParam |= 1 << uint(i)
					}
				}
			}
			// Rank roots: functions handed to vmpi.Run are rank-task
			// entry points; function literals contribute their callees
			// directly.
			if IsPkgFunc(info, n, "vmpi", "Run") {
				for _, a := range n.Args {
					switch arg := ast.Unparen(a).(type) {
					case *ast.FuncLit:
						ast.Inspect(arg.Body, func(m ast.Node) bool {
							if c, ok := m.(*ast.CallExpr); ok {
								if cf := CalleeFunc(info, c); cf != nil && !RankBlessedPkg(cf.Pkg()) {
									f.rankRoots = append(f.rankRoots, FuncKey(cf))
								}
							}
							return true
						})
					case *ast.Ident, *ast.SelectorExpr:
						var obj types.Object
						if id, ok := arg.(*ast.Ident); ok {
							obj = info.Uses[id]
						} else {
							obj = info.Uses[arg.(*ast.SelectorExpr).Sel]
						}
						if rf, ok := obj.(*types.Func); ok {
							f.rankRoots = append(f.rankRoots, FuncKey(rf))
						}
					}
				}
			}
			if !blessed && fn.Pkg() != nil {
				if k := FuncKey(fn); !seenCallee[k] {
					seenCallee[k] = true
					out.Callees = append(out.Callees, k)
				}
			}
		}
		return true
	})

	out.AllocatesAlways = allocatesAlways(info, decl.Body, f)
	return out
}

// allocatesAlways reports whether the body allocates before its first
// branch, loop, or early exit: allocations in the straight-line prefix
// (including inside the prefix's return expressions, excluding function
// literal bodies) happen on every call.
func allocatesAlways(info *types.Info, body *ast.BlockStmt, f *Facts) bool {
	for _, stmt := range body.List {
		switch stmt.(type) {
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.BranchStmt:
			// Beyond the straight-line prefix: later allocations are
			// conditional as far as this approximation can tell.
			return false
		}
		if stmtAllocates(info, stmt, f) {
			return true
		}
		if _, ok := stmt.(*ast.ReturnStmt); ok {
			return false
		}
	}
	return false
}

func stmtAllocates(info *types.Info, stmt ast.Stmt, f *Facts) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					if b.Name() == "make" || b.Name() == "new" {
						found = true
					}
					return true
				}
			}
			if fn := CalleeFunc(info, n); fn != nil && f.Of(fn).AllocatesAlways {
				found = true
			}
		}
		return !found
	})
	return found
}

// IsCollectOnly reports whether a map-range body only appends the
// iteration variables to a slice — the collect-then-sort idiom, whose
// result is order-independent up to the subsequent sort.
func IsCollectOnly(info *types.Info, body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	as, ok := body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
