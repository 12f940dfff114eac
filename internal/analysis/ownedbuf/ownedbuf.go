// Package ownedbuf enforces the zero-copy ownership protocol of the vmpi
// messaging layer (see the ownership notes in internal/vmpi/pool.go):
//
//   - A slice passed to vmpi.SendOwned or vmpi.AlltoallOwned is
//     relinquished: the caller must not read, write, append to, release,
//     or re-send it afterwards.
//   - A slice handed back with vmpi.Release / vmpi.ReleaseBlocks may be
//     released at most once and must not be used afterwards.
//   - The result of vmpi.Bcast, vmpi.Allreduce or vmpi.Allgather — or of a
//     helper whose summary returns one (SharedResult) — is a shared
//     read-only view of one broadcast buffer: storing into an element,
//     copy into it, append onto it, clear of it, and passing it to
//     SendOwned/AlltoallOwned are reported. Reading and Release are legal.
//
// The analysis is positional within each function (including its nested
// closures, whose captured variables share the enclosing frame): a
// tracked slice variable — or a whole-slice alias of it — that is used
// at a source position after its transfer or release is reported.
// Transfers and releases are recognized interprocedurally through the
// fact layer: a call to a helper whose summary proves it passes
// parameter i to SendOwned/AlltoallOwned (TransfersParam) or to
// Release/ReleaseBlocks (ReleasesParam) — possibly through further
// helpers, across package boundaries — consumes the argument in that
// position exactly like the direct vmpi call would. Reassigning the variable (`buf = ...`, `buf := ...`) ends the
// tracking, because the name then denotes a fresh buffer. A transfer
// inside a block that ends with return or panic only poisons the rest of
// that block: the code after it runs only on paths that never transferred
// (the `if sender { SendOwned(...); return nil }` idiom).
//
// Container elements (`parts[i]`) are not tracked: element identity is not
// decidable syntactically, and the one blessed pattern — building
// per-destination parts and passing the whole set to AlltoallOwned — is
// covered by tracking the container variable itself.
package ownedbuf

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ownedbuf",
	Doc: "reports uses of message buffers after vmpi ownership transfer " +
		"(SendOwned/AlltoallOwned), double or post-transfer Release, and " +
		"writes to or transfers of shared read-only broadcast views",
	Run: run,
}

// terminates reports whether s unconditionally leaves the enclosing
// function: a return statement or a call of the panic builtin. break and
// continue do NOT qualify — flow can re-enter the loop body and reach the
// code after the block.
func terminates(info *types.Info, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				b, ok := info.Uses[id].(*types.Builtin)
				return ok && b.Name() == "panic"
			}
		}
	}
	return false
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				analyzeFunc(pass, fd.Body)
			}
		}
	}
}

// event kinds, in processing priority at equal source positions: a use at
// the transfer call itself (the argument) precedes the transfer taking
// effect; kills apply at statement end; resets apply at block end.
const (
	evAlias = iota
	evUse
	evWrite
	evTransfer
	evRelease
	evKill
	evShare
	evReset
)

type event struct {
	kind int
	pos  token.Pos
	obj  types.Object
	src  types.Object // alias source for evAlias
	// what names the operation: "SendOwned" / "AlltoallOwned" / "Release" /
	// "ReleaseBlocks" / "call to f"; for evWrite the kind of write; for
	// evShare the call that produced the view, located at `at`.
	what string
	at   token.Pos
}

// bufState is the shared ownership state of an alias group.
type bufState struct {
	status int // stOwned, stTransferred, stReleased
	what   string
	pos    token.Pos
	// sharedBy is non-empty while the group names a shared read-only
	// broadcast view: the producing call and its position.
	sharedBy string
	sharedAt token.Pos
}

const (
	stOwned = iota
	stTransferred
	stReleased
)

// builtinWrites maps the builtins that write through their first argument
// to the wording of the report.
var builtinWrites = map[string]string{"copy": "copy into", "append": "append onto", "clear": "clear of"}

func analyzeFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.Info
	var events []event
	// consumed marks identifiers that are arguments of transfer/release
	// calls or assignment targets; they get dedicated events instead of
	// plain use events.
	consumed := map[*ast.Ident]bool{}

	// Extents of blocks whose statement list ends in return or panic. A
	// transfer inside such a block is never dynamically followed by the code
	// after the block (the `SendOwned(...); return nil` branch of
	// vmpi.Reduce is the canonical case), so its tracking resets at the
	// block's end.
	var terms []struct{ lo, hi token.Pos }
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		if len(list) > 0 && terminates(info, list[len(list)-1]) {
			terms = append(terms, struct{ lo, hi token.Pos }{n.Pos(), n.End()})
		}
		return true
	})
	// resetAt returns the end of the innermost terminating block containing
	// p, or token.NoPos.
	resetAt := func(p token.Pos) token.Pos {
		best := token.NoPos
		bestSpan := token.Pos(0)
		for _, t := range terms {
			if t.lo <= p && p < t.hi && (best == token.NoPos || t.hi-t.lo < bestSpan) {
				best, bestSpan = t.hi, t.hi-t.lo
			}
		}
		return best
	}

	sliceVar := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				return v
			}
		}
		return nil
	}

	// viewBase returns the slice variable an expression reads or writes
	// through — v for v, v[a:b], v[i], v[i].f — and whether the path indexed
	// an element.
	viewBase := func(e ast.Expr) (obj types.Object, indexed bool) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				indexed = true
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[x]; !ok || sel.Kind() != types.FieldVal {
					return nil, false
				}
				e = x.X
			default:
				return sliceVar(e), indexed
			}
		}
	}
	// store records a write through lhs when it lands in a slice variable's
	// elements.
	store := func(lhs ast.Expr) {
		if obj, indexed := viewBase(lhs); obj != nil && indexed {
			events = append(events, event{kind: evWrite, pos: lhs.Pos(), obj: obj, what: "element store into"})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					what := builtinWrites[b.Name()]
					if obj, _ := viewBase(n.Args[0]); what != "" && obj != nil {
						events = append(events, event{kind: evWrite, pos: n.Args[0].Pos(), obj: obj, what: what})
					}
					return true
				}
			}
			fn := analysis.CalleeFunc(info, n)
			if fn == nil {
				return true
			}
			if analysis.PkgIs(fn.Pkg(), "vmpi") {
				var argIdx int
				switch fn.Name() {
				case "SendOwned", "AlltoallOwned":
					argIdx = 1
				case "Release", "ReleaseBlocks":
					argIdx = 0
				default:
					return true
				}
				if argIdx >= len(n.Args) {
					return true
				}
				arg, _ := ast.Unparen(n.Args[argIdx]).(*ast.Ident)
				if arg == nil {
					return true
				}
				obj := sliceVar(arg)
				if obj == nil {
					return true
				}
				consumed[arg] = true
				kind := evTransfer
				if fn.Name() == "Release" || fn.Name() == "ReleaseBlocks" {
					kind = evRelease
				}
				events = append(events, event{kind: kind, pos: n.Pos(), obj: obj, what: fn.Name()})
				if end := resetAt(n.Pos()); end != token.NoPos {
					events = append(events, event{kind: evReset, pos: end, obj: obj})
				}
				return true
			}
			// Interprocedural: a helper whose fact summary proves it
			// relinquishes or releases a parameter consumes the argument
			// passed there, exactly like the underlying vmpi call would.
			ff := pass.Facts.Of(fn)
			if ff.TransfersParam == 0 && ff.ReleasesParam == 0 {
				return true
			}
			for j, a := range n.Args {
				if j >= 64 {
					break
				}
				transfers := ff.TransfersParam&(1<<uint(j)) != 0
				releases := ff.ReleasesParam&(1<<uint(j)) != 0
				if !transfers && !releases {
					continue
				}
				arg, _ := ast.Unparen(a).(*ast.Ident)
				if arg == nil {
					continue
				}
				obj := sliceVar(arg)
				if obj == nil {
					continue
				}
				consumed[arg] = true
				kind := evTransfer
				if releases && !transfers {
					kind = evRelease
				}
				events = append(events, event{kind: kind, pos: n.Pos(), obj: obj, what: "call to " + fn.Name()})
				if end := resetAt(n.Pos()); end != token.NoPos {
					events = append(events, event{kind: evReset, pos: end, obj: obj})
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					store(lhs)
					continue
				}
				if id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				consumed[id] = true
				// Whole-slice aliases propagate ownership state; any other
				// assignment rebinds the name to a fresh buffer.
				if len(n.Lhs) == len(n.Rhs) {
					rhs := ast.Unparen(n.Rhs[i])
					if se, ok := rhs.(*ast.SliceExpr); ok {
						rhs = ast.Unparen(se.X)
					}
					if src := sliceVar(rhs); src != nil && src != obj {
						events = append(events, event{kind: evAlias, pos: n.End(), obj: obj, src: src})
						continue
					}
				}
				events = append(events, event{kind: evKill, pos: n.End(), obj: obj})
				if len(n.Lhs) == len(n.Rhs) {
					if fn, call := pass.Facts.SharedViewCall(info, n.Rhs[i]); fn != nil {
						events = append(events, event{kind: evShare, pos: n.End(), obj: obj, what: fn.Name(), at: call.Pos()})
					}
				}
			}
		}
		return true
	})

	if len(events) == 0 {
		return
	}
	// Any event established tracking for its object; now collect plain uses
	// of exactly those objects.
	tracked := map[types.Object]bool{}
	for _, e := range events {
		tracked[e.obj] = true
		if e.src != nil {
			tracked[e.src] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || consumed[id] {
			return true
		}
		if obj := info.Uses[id]; obj != nil && tracked[obj] {
			events = append(events, event{kind: evUse, pos: id.Pos(), obj: obj})
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool {
		if events[i].pos != events[j].pos {
			return events[i].pos < events[j].pos
		}
		return events[i].kind < events[j].kind
	})

	states := map[types.Object]*bufState{}
	get := func(obj types.Object) *bufState {
		st := states[obj]
		if st == nil {
			st = &bufState{}
			states[obj] = st
		}
		return st
	}
	site := func(p token.Pos) string {
		pos := pass.Fset.Position(p)
		return pos.String()
	}
	for _, e := range events {
		switch e.kind {
		case evAlias:
			states[e.obj] = get(e.src)
		case evKill:
			states[e.obj] = &bufState{}
		case evShare:
			st := get(e.obj)
			st.sharedBy, st.sharedAt = e.what, e.at
		case evReset:
			// Code past the terminating block runs only on paths that did not
			// take the transfer; the whole alias group is owned again.
			st := get(e.obj)
			st.status, st.what, st.pos = stOwned, "", token.NoPos
		case evWrite:
			if st := get(e.obj); st.sharedBy != "" {
				pass.Reportf(e.pos, "%s %s, a shared read-only view returned by %s at %s",
					e.what, e.obj.Name(), st.sharedBy, site(st.sharedAt))
			}
		case evUse:
			switch st := get(e.obj); st.status {
			case stTransferred:
				pass.Reportf(e.pos, "use of %s after ownership was transferred by %s at %s",
					e.obj.Name(), st.what, site(st.pos))
			case stReleased:
				pass.Reportf(e.pos, "use of %s after it was released at %s",
					e.obj.Name(), site(st.pos))
			}
		case evTransfer:
			st := get(e.obj)
			if st.sharedBy != "" {
				pass.Reportf(e.pos, "%s of %s, a shared read-only view returned by %s at %s",
					e.what, e.obj.Name(), st.sharedBy, site(st.sharedAt))
			}
			switch st.status {
			case stTransferred:
				pass.Reportf(e.pos, "%s of %s after ownership was already transferred by %s at %s",
					e.what, e.obj.Name(), st.what, site(st.pos))
			case stReleased:
				pass.Reportf(e.pos, "%s of %s after it was released at %s",
					e.what, e.obj.Name(), site(st.pos))
			}
			st.status, st.what, st.pos = stTransferred, e.what, e.pos
		case evRelease:
			st := get(e.obj)
			switch st.status {
			case stTransferred:
				pass.Reportf(e.pos, "%s of %s after ownership was transferred by %s at %s",
					e.what, e.obj.Name(), st.what, site(st.pos))
			case stReleased:
				pass.Reportf(e.pos, "second %s of %s (already released at %s)",
					e.what, e.obj.Name(), site(st.pos))
			}
			st.status, st.what, st.pos = stReleased, e.what, e.pos
		}
	}
}
