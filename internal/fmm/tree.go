package fmm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/costs"
	"repro/internal/hostpar"
	"repro/internal/particle"
	"repro/internal/zorder"
)

// Engine is the per-process FMM compute engine: it owns a set of particles
// pre-sorted by leaf-level Morton key, builds multipole expansions upward,
// consumes remote partial multipoles and ghost particles supplied by the
// parallel driver, and evaluates far and near field for the owned
// particles.
//
// Levels are numbered 0 (root) to Level (leaves); expansions exist for
// levels 1..Level. With periodic boundaries, neighbor and interaction lists
// wrap around, which yields the minimum-image periodic approximation
// documented in DESIGN.md.
type Engine struct {
	Tab      *Tables
	Box      particle.Box
	Level    int
	Periodic bool

	// Owned particles, sorted ascending by leaf key.
	pos, q []float64
	keys   []uint64
	leaves []leafRange

	// Ghost particles (near-field halo from other processes).
	gpos, gq []float64
	gkeys    []uint64
	gleaves  map[uint64][2]int // key -> [lo, hi) in ghost arrays

	// Expansions per level: M multipoles, L locals.
	M []map[uint64][]float64
	L []map[uint64][]float64

	// boxLen and boxPer cache the box geometry so the pair kernels avoid
	// re-deriving (and re-validating) it per interaction. Only engines built
	// by NewEngine may use them; the box must not change afterwards.
	boxLen [3]float64
	boxPer [3]bool

	// CostSeconds accumulates the modelled computation time of all engine
	// work since construction.
	CostSeconds float64
}

type leafRange struct {
	key    uint64
	lo, hi int
}

// NewEngine builds an engine over owned particles that must already be
// sorted ascending by their leaf keys (as produced by the parallel sort).
// pos and q are not copied; the engine reads them during Compute phases.
func NewEngine(tab *Tables, box particle.Box, level int, pos, q []float64, keys []uint64) *Engine {
	if level < 1 || level > zorder.MaxLevel {
		panic(fmt.Sprintf("fmm: invalid level %d", level))
	}
	n := len(q)
	if len(pos) != 3*n || len(keys) != n {
		panic("fmm: inconsistent particle arrays")
	}
	for i := 1; i < n; i++ {
		if keys[i-1] > keys[i] {
			panic("fmm: particles not sorted by leaf key")
		}
	}
	e := &Engine{
		Tab:      tab,
		Box:      box,
		Level:    level,
		Periodic: box.Periodic[0] && box.Periodic[1] && box.Periodic[2],
		pos:      pos,
		q:        q,
		keys:     keys,
		gleaves:  map[uint64][2]int{},
		boxLen:   box.Lengths(),
		boxPer:   box.Periodic,
	}
	e.leaves = buildRanges(keys)
	e.M = make([]map[uint64][]float64, level+1)
	e.L = make([]map[uint64][]float64, level+1)
	for l := 0; l <= level; l++ {
		e.M[l] = map[uint64][]float64{}
		e.L[l] = map[uint64][]float64{}
	}
	return e
}

func buildRanges(keys []uint64) []leafRange {
	var out []leafRange
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		out = append(out, leafRange{key: keys[i], lo: i, hi: j})
		i = j
	}
	return out
}

// KeyOf returns the leaf-level Morton key for a position.
func (e *Engine) KeyOf(x, y, z float64) uint64 {
	ux, uy, uz := e.Box.ToUnit(x, y, z)
	return zorder.BoxKey(ux, uy, uz, e.Level)
}

// LeafKeys returns the distinct owned leaf keys in ascending order.
func (e *Engine) LeafKeys() []uint64 {
	out := make([]uint64, len(e.leaves))
	for i, lr := range e.leaves {
		out[i] = lr.key
	}
	return out
}

// AddGhosts registers halo particles received from other processes. Ghosts
// contribute to the near field of owned particles but are not owned.
func (e *Engine) AddGhosts(pos, q []float64) {
	n := len(q)
	keys := make([]uint64, n)
	ord := make([]int, n)
	for i := 0; i < n; i++ {
		keys[i] = e.KeyOf(pos[3*i], pos[3*i+1], pos[3*i+2])
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return keys[ord[a]] < keys[ord[b]] })
	e.gpos = make([]float64, 3*n)
	e.gq = make([]float64, n)
	e.gkeys = make([]uint64, n)
	for out, in := range ord {
		e.gpos[3*out] = pos[3*in]
		e.gpos[3*out+1] = pos[3*in+1]
		e.gpos[3*out+2] = pos[3*in+2]
		e.gq[out] = q[in]
		e.gkeys[out] = keys[in]
	}
	e.gleaves = map[uint64][2]int{}
	for _, r := range buildRanges(e.gkeys) {
		e.gleaves[r.key] = [2]int{r.lo, r.hi}
	}
	e.CostSeconds += costs.SortTime(n)
}

// cellSize returns the box edge lengths of a level-l box. It relies on the
// cached geometry, so it must only be called on engines built by NewEngine.
func (e *Engine) cellSize(l int) [3]float64 {
	f := float64(uint64(1) << uint(l))
	return [3]float64{e.boxLen[0] / f, e.boxLen[1] / f, e.boxLen[2] / f}
}

// minImage is Box.MinImage against the cached geometry: the same arithmetic
// without re-validating the box per pair.
//
//parlint:hotalloc
func (e *Engine) minImage(dx, dy, dz float64) (float64, float64, float64) {
	if e.boxPer[0] {
		dx -= e.boxLen[0] * math.Round(dx/e.boxLen[0])
	}
	if e.boxPer[1] {
		dy -= e.boxLen[1] * math.Round(dy/e.boxLen[1])
	}
	if e.boxPer[2] {
		dz -= e.boxLen[2] * math.Round(dz/e.boxLen[2])
	}
	return dx, dy, dz
}

// center returns the center of the box with the given key at level l.
func (e *Engine) center(l int, key uint64) [3]float64 {
	cx, cy, cz := zorder.Decode(key)
	cs := e.cellSize(l)
	return [3]float64{
		e.Box.Offset[0] + (float64(cx)+0.5)*cs[0],
		e.Box.Offset[1] + (float64(cy)+0.5)*cs[1],
		e.Box.Offset[2] + (float64(cz)+0.5)*cs[2],
	}
}

// sortedKeys returns the keys of an expansion map in ascending order, so
// iteration order (and therefore floating-point accumulation order) is a
// property of the tree, not of Go's randomized map traversal.
func sortedKeys(m map[uint64][]float64) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Host-parallel tile grains for the engine kernels: tiles are pure
// functions of these constants and the problem size, never of the host.
const (
	leafGrain   = 4 // leaves per tile in P2M / L2P sweeps
	groupGrain  = 2 // parent groups per tile in the M2M sweep
	targetGrain = 2 // target boxes per tile in the Downward sweep
	nearGrain   = 1 // leaves per tile in the near-field sweep
)

// Upward builds leaf multipoles from owned particles and translates them up
// to level 1.
//
// Both sweeps run on host workers (package hostpar): each leaf / parent box
// is an independent output, computed into a dense per-tile slot, and the
// map inserts plus the virtual-cost charges replay sequentially afterwards
// in ascending key order. Children are folded into their parent in
// ascending key order, so the result is bit-identical at any GOMAXPROCS.
func (e *Engine) Upward() {
	nc := e.Tab.NCoef()
	leafMs := make([][]float64, len(e.leaves))
	hostpar.For(len(e.leaves), leafGrain, func(lo, hi int) {
		for li := lo; li < hi; li++ {
			lr := e.leaves[li]
			M := make([]float64, nc)
			c := e.center(e.Level, lr.key)
			for i := lr.lo; i < lr.hi; i++ {
				e.Tab.P2M(e.q[i], e.pos[3*i]-c[0], e.pos[3*i+1]-c[1], e.pos[3*i+2]-c[2], M)
			}
			leafMs[li] = M
		}
	})
	for li, lr := range e.leaves {
		e.M[e.Level][lr.key] = leafMs[li]
		e.CostSeconds += float64(lr.hi-lr.lo) * float64(nc) * costs.MultipoleTerm
	}
	for l := e.Level - 1; l >= 1; l-- {
		children := sortedKeys(e.M[l+1])
		// Sorted Morton keys have a common parent contiguous, so group the
		// children by parent; each group is one independent M2M reduction.
		type group struct {
			pk     uint64
			lo, hi int
		}
		var groups []group
		for i := 0; i < len(children); {
			pk := zorder.Parent(children[i])
			j := i
			for j < len(children) && zorder.Parent(children[j]) == pk {
				j++
			}
			groups = append(groups, group{pk: pk, lo: i, hi: j})
			i = j
		}
		parentMs := make([][]float64, len(groups))
		hostpar.For(len(groups), groupGrain, func(lo, hi int) {
			for gi := lo; gi < hi; gi++ {
				g := groups[gi]
				Mp := make([]float64, nc)
				pc := e.center(l, g.pk)
				for _, key := range children[g.lo:g.hi] {
					cc := e.center(l+1, key)
					e.Tab.M2M(e.M[l+1][key], cc[0]-pc[0], cc[1]-pc[1], cc[2]-pc[2], Mp)
				}
				parentMs[gi] = Mp
			}
		})
		for gi, g := range groups {
			e.M[l][g.pk] = parentMs[gi]
			for k := g.lo; k < g.hi; k++ {
				e.CostSeconds += float64(nc*nc) * costs.MultipoleTerm
			}
		}
	}
}

// Multipole returns the (possibly partial) multipole of the box with the
// given key at level l, or nil if the engine holds nothing there.
func (e *Engine) Multipole(l int, key uint64) []float64 {
	return e.M[l][key]
}

// AddRemoteMultipole accumulates another process's partial multipole of a
// box into the engine's tables. Must be called after Upward and before
// Downward.
func (e *Engine) AddRemoteMultipole(l int, key uint64, coef []float64) {
	nc := e.Tab.NCoef()
	if len(coef) != nc {
		panic("fmm: remote multipole length mismatch")
	}
	M := e.M[l][key]
	if M == nil {
		M = make([]float64, nc)
		e.M[l][key] = M
	}
	for i, v := range coef {
		M[i] += v
	}
}

// InteractionList returns the keys of the boxes in the interaction list of
// box key at level l: children of the neighbors of its parent that are not
// its own neighbors.
func (e *Engine) InteractionList(l int, key uint64) []uint64 {
	return e.interactionList(nil, l, key)
}

// maxInteractions bounds the length of an interaction list: the 6³ children
// of the parent's neighborhood minus the box's own 3³ neighborhood.
const maxInteractions = 6*6*6 - 3*3*3

// interactionList is InteractionList appending into dst[:0]. Parent
// neighbors come in Neighbors3 order and children in octant order; a child
// is dropped when its cell coordinates are within distance 1 of the box's
// on every axis, which is membership in the box's own Neighbors3 set
// without building it.
//
//parlint:hotalloc
func (e *Engine) interactionList(dst []uint64, l int, key uint64) []uint64 {
	out := dst[:0]
	if l < 1 {
		return out
	}
	n := uint32(1) << uint(l)
	x, y, z := zorder.Decode(key)
	var parents [27]uint64
	for _, pn := range zorder.Neighbors3Into(parents[:0], zorder.Parent(key), l-1, e.Periodic) {
		px, py, pz := zorder.Decode(pn)
		for c := uint32(0); c < 8; c++ {
			if e.adjacent(2*px+c>>2, x, n) && e.adjacent(2*py+c>>1&1, y, n) && e.adjacent(2*pz+c&1, z, n) {
				continue
			}
			out = append(out, zorder.Child(pn, int(c)))
		}
	}
	return out
}

// adjacent reports whether cell coordinates a and b on an n-cell axis are
// at most one cell apart, around the box for periodic engines.
func (e *Engine) adjacent(a, b, n uint32) bool {
	d := a - b
	if a < b {
		d = b - a
	}
	return d <= 1 || (e.Periodic && d == n-1)
}

// wrapOffset returns the integer cell offset from source to target at level
// l, wrapped to the nearest image for periodic boxes.
func (e *Engine) wrapOffset(l int, target, source uint64) [3]int {
	tx, ty, tz := zorder.Decode(target)
	sx, sy, sz := zorder.Decode(source)
	n := int(uint64(1) << uint(l))
	off := [3]int{int(tx) - int(sx), int(ty) - int(sy), int(tz) - int(sz)}
	if e.Periodic {
		for d := 0; d < 3; d++ {
			off[d] = ((off[d]+n/2)%n+n)%n - n/2
		}
	}
	return off
}

// derivSlot numbers the integer cell offsets (target − source) of M2L
// pairs densely. Interaction-list offsets lie in [−3, 3] per dimension and
// periodic wrapping maps them into [−4, 3]: 3 bits per dimension.
func derivSlot(off [3]int) int {
	return (off[0]+4)<<6 | (off[1]+4)<<3 | (off[2] + 4)
}

// derivTensors returns the derivative tensors of every offset an
// interaction list of level l can contain, indexed by derivSlot. A tensor
// is a pure function of level and offset, so Downward builds the level's
// table once, sequentially, and its host workers only read it.
func (e *Engine) derivTensors(l int) [][]float64 {
	n := 1 << uint(l)
	lo, hi := -min(3, n-1), min(3, n-1)
	if e.Periodic && n < 8 {
		lo, hi = -n/2, n/2-1 // the range wrapOffset folds into
	}
	cs := e.cellSize(l)
	// w³ offsets in range, k³ of them neighbors (near field, no tensor).
	nc, w, k := e.Tab.NCoef(), hi-lo+1, min(hi, 1)-max(lo, -1)+1
	tensors := make([][]float64, 8*8*8)
	backing := make([]float64, (w*w*w-k*k*k)*nc)
	for ox := lo; ox <= hi; ox++ {
		for oy := lo; oy <= hi; oy++ {
			for oz := lo; oz <= hi; oz++ {
				if -1 <= ox && ox <= 1 && -1 <= oy && oy <= 1 && -1 <= oz && oz <= 1 {
					continue
				}
				b := backing[:nc:nc]
				backing = backing[nc:]
				e.Tab.Deriv(float64(ox)*cs[0], float64(oy)*cs[1], float64(oz)*cs[2], b)
				tensors[derivSlot([3]int{ox, oy, oz})] = b
			}
		}
	}
	return tensors
}

// Downward computes local expansions for all ancestors of owned leaves from
// the (complete) multipole tables and translates them down to the leaf
// level.
func (e *Engine) Downward() {
	nc := e.Tab.NCoef()
	// Target keys per level: ancestors of owned leaves.
	targets := make([][]uint64, e.Level+1)
	cur := make([]uint64, 0, len(e.leaves))
	for _, lr := range e.leaves {
		cur = append(cur, lr.key)
	}
	targets[e.Level] = cur
	for l := e.Level - 1; l >= 1; l-- {
		up := targets[l+1]
		var t []uint64
		var last uint64
		for i, k := range up {
			pk := zorder.Parent(k)
			if i == 0 || pk != last {
				t = append(t, pk)
				last = pk
			}
		}
		targets[l] = t
	}
	// Each level translates from the (read-only) level above: its targets
	// are independent, so they run on host workers, each filling a dense
	// per-target slot. The map inserts and the virtual-cost charges replay
	// sequentially in target order afterwards — the charge sequence (one
	// L2L term when the parent had a local expansion, then one term per
	// performed M2L) is exactly the serial one.
	for l := 1; l <= e.Level; l++ {
		tl := targets[l]
		if len(tl) == 0 {
			continue
		}
		derivs := e.derivTensors(l)
		Ls := make([][]float64, len(tl))
		hadParent := make([]bool, len(tl))
		nM2L := make([]int, len(tl))
		hostpar.For(len(tl), targetGrain, func(lo, hi int) {
			var ilBuf [maxInteractions]uint64
			for ti := lo; ti < hi; ti++ {
				key := tl[ti]
				L := make([]float64, nc)
				if l > 1 {
					pk := zorder.Parent(key)
					if Lp := e.L[l-1][pk]; Lp != nil {
						pc := e.center(l-1, pk)
						cc := e.center(l, key)
						e.Tab.L2L(Lp, cc[0]-pc[0], cc[1]-pc[1], cc[2]-pc[2], L)
						hadParent[ti] = true
					}
				}
				for _, src := range e.interactionList(ilBuf[:0], l, key) {
					M := e.M[l][src]
					if M == nil {
						continue
					}
					b := derivs[derivSlot(e.wrapOffset(l, key, src))]
					e.Tab.M2L(M, b, L)
					nM2L[ti]++
				}
				Ls[ti] = L
			}
		})
		for ti, key := range tl {
			if hadParent[ti] {
				e.CostSeconds += float64(nc*nc) * costs.MultipoleTerm
			}
			for k := 0; k < nM2L[ti]; k++ {
				e.CostSeconds += float64(e.Tab.M2LOps()) * costs.MultipoleTerm
			}
			e.L[l][key] = Ls[ti]
		}
	}
}

// EvalFarField adds the far-field potential and field of each owned
// particle into pot (length n) and field (length 3n).
func (e *Engine) EvalFarField(pot, field []float64) {
	nc := e.Tab.NCoef()
	// Leaves partition the particle index range, so the tiles write
	// disjoint slices of pot and field; the cost charges replay in leaf
	// order afterwards.
	hostpar.For(len(e.leaves), leafGrain, func(lo, hi int) {
		for li := lo; li < hi; li++ {
			lr := e.leaves[li]
			L := e.L[e.Level][lr.key]
			if L == nil {
				continue
			}
			c := e.center(e.Level, lr.key)
			for i := lr.lo; i < lr.hi; i++ {
				p, fx, fy, fz := e.Tab.L2P(L, e.pos[3*i]-c[0], e.pos[3*i+1]-c[1], e.pos[3*i+2]-c[2])
				pot[i] += p
				field[3*i] += fx
				field[3*i+1] += fy
				field[3*i+2] += fz
			}
		}
	})
	for _, lr := range e.leaves {
		if e.L[e.Level][lr.key] == nil {
			continue
		}
		e.CostSeconds += float64(lr.hi-lr.lo) * float64(nc) * costs.MultipoleTerm
	}
}

// EvalNearField adds the near-field (neighbor-box direct) contributions of
// owned and ghost particles into pot and field of the owned particles.
// Displacements use the minimum-image convention, which is exact for
// neighbor boxes at level ≥ 2.
//
// The sweep is formulated as a gather: every owned particle accumulates
// only its own contributions, so leaves run on host workers with disjoint
// writes. Bit-identity with the symmetric leaf-pair traversal (the serial
// formulation) holds at any GOMAXPROCS because (a) the per-particle
// accumulation order reproduces the traversal exactly — smaller-key owned
// neighbor leaves in ascending key order (their earlier turn in the leaf
// loop), then the own box, then larger-key owned and ghost neighbors in
// Neighbors3 order — and (b) the minimum image of a negated displacement
// is the negated minimum image, and IEEE a-b == a+(-b), so a pair seen
// from the far side contributes the exact bits the symmetric update wrote.
// Every interacting owned pair is gathered from both sides, so the pair
// count the cost model charges is owned/2 + ghost, the symmetric count.
func (e *Engine) EvalNearField(pot, field []float64) {
	nt := hostpar.Tiles(len(e.leaves), nearGrain)
	ownedC := make([]int, nt)
	ghostC := make([]int, nt)
	hostpar.ForTiles(len(e.leaves), nearGrain, func(t, lo, hi int) {
		// One scratch set per tile: nearLeaf itself is then allocation-free,
		// and tiles never share (no cross-goroutine races).
		var ns nearScratch
		for li := lo; li < hi; li++ {
			o, g := e.nearLeaf(e.leaves[li], &ns, pot, field)
			ownedC[t] += o
			ghostC[t] += g
		}
	})
	own, gh := 0, 0
	for t := 0; t < nt; t++ {
		own += ownedC[t]
		gh += ghostC[t]
	}
	e.CostSeconds += float64(own/2+gh) * costs.Pair
}

// nearRange is one hoisted neighbor lookup of the near-field gather: an
// owned leaf range or a ghost range, in gather order.
type nearRange struct {
	ghost  bool
	lo, hi int
}

// nearScratch holds the per-tile reusable buffers of nearLeaf, so the
// per-leaf kernel allocates nothing once a tile is warm.
type nearScratch struct {
	nbs     []uint64
	earlier []leafRange
	later   []nearRange
}

// nearLeaf gathers the near-field contributions of every particle in leaf
// lr and returns the number of owned and ghost contributions with nonzero
// displacement. ns is caller-provided scratch, reused across the leaves
// of a tile.
//
//parlint:hotalloc
func (e *Engine) nearLeaf(lr leafRange, ns *nearScratch, pot, field []float64) (own, gh int) {
	ns.nbs = zorder.Neighbors3Into(ns.nbs, lr.key, e.Level, e.Periodic)
	nbs := ns.nbs
	// Owned neighbor leaves with smaller keys: in the symmetric traversal
	// their contributions arrived during their own (earlier) leaf turns, in
	// ascending key order.
	ns.earlier = ns.earlier[:0]
	for _, nb := range nbs {
		if nb < lr.key {
			if rr, ok := e.findLeaf(nb); ok {
				ns.earlier = append(ns.earlier, rr)
			}
		}
	}
	earlier := ns.earlier
	sort.Slice(earlier, func(a, b int) bool { return earlier[a].key < earlier[b].key })
	// Hoist the later-neighbor range lookups out of the particle loop: the
	// binary search and ghost-map probe per neighbor are invariant across the
	// leaf's particles. The action list preserves the exact gather order —
	// for each neighbor in Neighbors3 order, the owned range (keys above
	// ours) then the ghost range — so every particle accumulates in the same
	// sequence as the inline lookups did.
	ns.later = ns.later[:0]
	for _, nb := range nbs {
		if nb > lr.key {
			if rr, ok := e.findLeaf(nb); ok {
				ns.later = append(ns.later, nearRange{false, rr.lo, rr.hi})
			}
		}
		// Ghosts in the neighbor box (including the same key: a leaf
		// split across processes).
		if gr, ok := e.gleaves[nb]; ok {
			ns.later = append(ns.later, nearRange{true, gr[0], gr[1]})
		}
	}
	later := ns.later
	for i := lr.lo; i < lr.hi; i++ {
		for _, rr := range earlier {
			own += e.gatherOwned(i, rr.lo, rr.hi, pot, field)
		}
		// Own box: the j == i term has zero displacement and is skipped, so
		// this is exactly "rows before i, then row i" of the pair loops.
		own += e.gatherOwned(i, lr.lo, lr.hi, pot, field)
		for _, a := range later {
			if a.ghost {
				gh += e.gatherGhost(i, a.lo, a.hi, pot, field)
			} else {
				own += e.gatherOwned(i, a.lo, a.hi, pot, field)
			}
		}
	}
	return own, gh
}

// findLeaf locates an owned leaf range by key.
//
//parlint:hotalloc
func (e *Engine) findLeaf(key uint64) (leafRange, bool) {
	i := sort.Search(len(e.leaves), func(i int) bool { return e.leaves[i].key >= key })
	if i < len(e.leaves) && e.leaves[i].key == key {
		return e.leaves[i], true
	}
	return leafRange{}, false
}

// gatherOwned accumulates onto owned particle i the contributions of the
// owned particles in [jlo, jhi), returning how many had nonzero
// displacement. The j == i term (and any exactly coincident particle) is
// skipped on both sides of a pair, as in the symmetric update.
//
//parlint:hotalloc
func (e *Engine) gatherOwned(i, jlo, jhi int, pot, field []float64) int {
	n := 0
	xi, yi, zi := e.pos[3*i], e.pos[3*i+1], e.pos[3*i+2]
	for j := jlo; j < jhi; j++ {
		dx := xi - e.pos[3*j]
		dy := yi - e.pos[3*j+1]
		dz := zi - e.pos[3*j+2]
		dx, dy, dz = e.minImage(dx, dy, dz)
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			continue
		}
		r := math.Sqrt(r2)
		inv := 1 / r
		inv3 := inv / r2
		pot[i] += e.q[j] * inv
		field[3*i] += e.q[j] * dx * inv3
		field[3*i+1] += e.q[j] * dy * inv3
		field[3*i+2] += e.q[j] * dz * inv3
		n++
	}
	return n
}

// gatherGhost accumulates onto owned particle i the contributions of the
// ghost particles in [jlo, jhi).
//
//parlint:hotalloc
func (e *Engine) gatherGhost(i, jlo, jhi int, pot, field []float64) int {
	n := 0
	xi, yi, zi := e.pos[3*i], e.pos[3*i+1], e.pos[3*i+2]
	for j := jlo; j < jhi; j++ {
		dx := xi - e.gpos[3*j]
		dy := yi - e.gpos[3*j+1]
		dz := zi - e.gpos[3*j+2]
		dx, dy, dz = e.minImage(dx, dy, dz)
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			continue
		}
		r := math.Sqrt(r2)
		inv := 1 / r
		inv3 := inv / r2
		pot[i] += e.gq[j] * inv
		field[3*i] += e.gq[j] * dx * inv3
		field[3*i+1] += e.gq[j] * dy * inv3
		field[3*i+2] += e.gq[j] * dz * inv3
		n++
	}
	return n
}

// SolveSerial runs the whole FMM on a single process: particles need not be
// sorted; results are returned in input order. It is the reference path for
// accuracy tests and the degenerate single-rank case.
func SolveSerial(tab *Tables, box particle.Box, level int, pos, q, pot, field []float64) {
	n := len(q)
	keys := make([]uint64, n)
	ord := make([]int, n)
	tmp := &Engine{Tab: tab, Box: box, Level: level,
		Periodic: box.Periodic[0] && box.Periodic[1] && box.Periodic[2]}
	for i := 0; i < n; i++ {
		keys[i] = tmp.KeyOf(pos[3*i], pos[3*i+1], pos[3*i+2])
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return keys[ord[a]] < keys[ord[b]] })
	spos := make([]float64, 3*n)
	sq := make([]float64, n)
	skeys := make([]uint64, n)
	for out, in := range ord {
		spos[3*out], spos[3*out+1], spos[3*out+2] = pos[3*in], pos[3*in+1], pos[3*in+2]
		sq[out] = q[in]
		skeys[out] = keys[in]
	}
	e := NewEngine(tab, box, level, spos, sq, skeys)
	e.Upward()
	e.Downward()
	sp := make([]float64, n)
	sf := make([]float64, 3*n)
	e.EvalFarField(sp, sf)
	e.EvalNearField(sp, sf)
	for out, in := range ord {
		pot[in] = sp[out]
		field[3*in] = sf[3*out]
		field[3*in+1] = sf[3*out+1]
		field[3*in+2] = sf[3*out+2]
	}
}
