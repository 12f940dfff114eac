package fmm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/costs"
	"repro/internal/hostpar"
	"repro/internal/particle"
	"repro/internal/zorder"
)

// engine is the per-process FMM compute engine: it owns a set of particles
// pre-sorted by leaf-level Morton key, builds multipole expansions upward,
// consumes remote partial multipoles and ghost particles supplied by the
// parallel driver, and evaluates far and near field for the owned
// particles.
//
// Levels are numbered 0 (root) to Level (leaves); expansions exist for
// levels 1..Level. With periodic boundaries, neighbor and interaction lists
// wrap around, which yields the minimum-image periodic approximation
// documented in DESIGN.md.
type engine struct {
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
	gleaves  []leafRange // ghost boxes, ascending by key

	// Expansions per level: M multipoles, L locals.
	M []map[uint64][]float64
	L []map[uint64][]float64

	// boxLen and boxPer cache the box geometry so the pair kernels avoid
	// re-deriving (and re-validating) it per interaction. Only engines built
	// by newEngine may use them; the box must not change afterwards.
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

// newEngine builds an engine over owned particles that must already be
// sorted ascending by their leaf keys (as produced by the parallel sort).
// pos and q are not copied; the engine reads them during Compute phases.
func newEngine(tab *Tables, box particle.Box, level int, pos, q []float64, keys []uint64) *engine {
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
	e := &engine{
		Tab:      tab,
		Box:      box,
		Level:    level,
		Periodic: box.Periodic[0] && box.Periodic[1] && box.Periodic[2],
		pos:      pos,
		q:        q,
		keys:     keys,
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

// keyOf returns the leaf-level Morton key for a position.
func (e *engine) keyOf(x, y, z float64) uint64 {
	ux, uy, uz := e.Box.ToUnit(x, y, z)
	return zorder.BoxKey(ux, uy, uz, e.Level)
}

// addGhosts registers halo particles received from other processes. Ghosts
// contribute to the near field of owned particles but are not owned.
func (e *engine) addGhosts(pos, q []float64) {
	n := len(q)
	keys := make([]uint64, n)
	ord := make([]int, n)
	for i := 0; i < n; i++ {
		keys[i] = e.keyOf(pos[3*i], pos[3*i+1], pos[3*i+2])
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
	e.gleaves = buildRanges(e.gkeys)
	e.CostSeconds += costs.SortTime(n)
}

// cellSize returns the box edge lengths of a level-l box. It relies on the
// cached geometry, so it must only be called on engines built by newEngine.
func (e *engine) cellSize(l int) [3]float64 {
	f := float64(uint64(1) << uint(l))
	return [3]float64{e.boxLen[0] / f, e.boxLen[1] / f, e.boxLen[2] / f}
}

// minImage is Box.MinImage against the cached geometry: the same arithmetic
// without re-validating the box per pair.
//
//parlint:hotalloc
func (e *engine) minImage(dx, dy, dz float64) (float64, float64, float64) {
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
func (e *engine) center(l int, key uint64) [3]float64 {
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
	slices.Sort(out)
	return out
}

// Host-parallel tile grains for the engine kernels: tiles are pure
// functions of these constants and the problem size, never of the host.
const (
	leafGrain  = 4 // leaves per tile in P2M / L2P sweeps
	groupGrain = 2 // parent groups per tile in the M2M sweep
	batchGrain = 1 // octant batches per tile in the downward sweep
	nearGrain  = 1 // leaves per tile in the near-field sweep
)

// upward builds leaf multipoles from owned particles and translates them up
// to level 1.
//
// Both sweeps run on host workers (package hostpar): each leaf / parent box
// is an independent output, computed into a dense per-tile slot, and the
// map inserts plus the virtual-cost charges replay sequentially afterwards
// in ascending key order. Children are folded into their parent in
// ascending key order, so the result is bit-identical at any GOMAXPROCS.
func (e *engine) upward() {
	nc := e.Tab.NCoef()
	leafMs := make([][]float64, len(e.leaves))
	hostpar.For(len(e.leaves), leafGrain, func(lo, hi int) {
		for li := lo; li < hi; li++ {
			lr := e.leaves[li]
			M := make([]float64, nc)
			c := e.center(e.Level, lr.key)
			for i := lr.lo; i < lr.hi; i++ {
				e.Tab.p2m(e.q[i], e.pos[3*i]-c[0], e.pos[3*i+1]-c[1], e.pos[3*i+2]-c[2], M)
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
					e.Tab.m2m(e.M[l+1][key], cc[0]-pc[0], cc[1]-pc[1], cc[2]-pc[2], Mp)
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

// addRemoteMultipole accumulates another process's partial multipole of a
// box into the engine's tables. Must be called after upward and before
// downward.
func (e *engine) addRemoteMultipole(l int, key uint64, coef []float64) {
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

// maxInteractions bounds the length of an interaction list: the 6³ children
// of the parent's neighborhood minus the box's own 3³ neighborhood.
const maxInteractions = 6*6*6 - 3*3*3

// interactionList appends into dst[:0] the keys of the boxes in the
// interaction list of box key at level l: children of the neighbors of its
// parent that are not its own neighbors. Parent neighbors come in
// Neighbors3 order and children in octant order; a child is dropped when
// its cell coordinates are within distance 1 of the box's on every axis,
// which is membership in the box's own Neighbors3 set without building it.
//
//parlint:hotalloc
func (e *engine) interactionList(dst []uint64, l int, key uint64) []uint64 {
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
func (e *engine) adjacent(a, b, n uint32) bool {
	d := a - b
	if a < b {
		d = b - a
	}
	return d <= 1 || (e.Periodic && d == n-1)
}

// wrapOffset returns the integer cell offset from source to target at level
// l, wrapped to the nearest image for periodic boxes.
func (e *engine) wrapOffset(l int, target, source uint64) [3]int {
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
// is a pure function of level and offset, so downward builds the level's
// table once, sequentially, and its host workers only read it.
func (e *engine) derivTensors(l int) [][]float64 {
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

// m2lBatch is the number of same-octant targets one m2l4 pass serves.
const m2lBatch = 4

// octantBatches returns the downward batches of a level's targets: the
// indices into tl grouped by octant (key&7), ascending within a group, and
// each group cut into runs of up to m2lBatch. With periodic boxes, targets
// of one octant at level ≥ 3 see their interaction lists at the same cell
// offsets in the same order, so a batch meets one derivative tensor per
// list position.
func octantBatches(tl []uint64) [][]int {
	// order never outgrows its capacity, so the batches slice it in place.
	order := make([]int, 0, len(tl))
	batches := make([][]int, 0, len(tl)/m2lBatch+8)
	for oct := uint64(0); oct < 8; oct++ {
		start := len(order)
		for ti, key := range tl {
			if key&7 == oct {
				order = append(order, ti)
			}
		}
		for lo := start; lo < len(order); lo += m2lBatch {
			hi := min(lo+m2lBatch, len(order))
			batches = append(batches, order[lo:hi:hi])
		}
	}
	return batches
}

// downward computes local expansions for all ancestors of owned leaves from
// the (complete) multipole tables and translates them down to the leaf
// level.
func (e *engine) downward() {
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
	// are independent, so their batches run on host workers, each target
	// filling a dense per-target slot. The map inserts and the virtual-cost
	// charges replay sequentially in target order afterwards — the charge
	// sequence (one L2L term when the parent had a local expansion, then
	// one term per performed M2L) is exactly the serial one.
	for l := 1; l <= e.Level; l++ {
		tl := targets[l]
		if len(tl) == 0 {
			continue
		}
		s := downwardLevel{
			l:         l,
			tl:        tl,
			derivs:    e.derivTensors(l),
			Ls:        make([][]float64, len(tl)),
			hadParent: make([]bool, len(tl)),
			nM2L:      make([]int, len(tl)),
		}
		batches := octantBatches(tl)
		hostpar.For(len(batches), batchGrain, func(lo, hi int) {
			var ilBuf [m2lBatch][maxInteractions]uint64
			for _, batch := range batches[lo:hi] {
				e.downwardBatch(&s, batch, &ilBuf)
			}
		})
		for ti, key := range tl {
			if s.hadParent[ti] {
				e.CostSeconds += float64(nc*nc) * costs.MultipoleTerm
			}
			for k := 0; k < s.nM2L[ti]; k++ {
				e.CostSeconds += float64(e.Tab.m2lOps()) * costs.MultipoleTerm
			}
			e.L[l][key] = s.Ls[ti]
		}
	}
}

// downwardLevel is one level of the downward sweep: its targets, the
// level's derivative tensors, and the dense per-target outputs the batches
// fill.
type downwardLevel struct {
	l         int
	tl        []uint64
	derivs    [][]float64
	Ls        [][]float64
	hadParent []bool
	nM2L      []int
}

// downwardBatch computes the local expansion of every target tl[ti], ti in
// batch (at most m2lBatch targets of one octant): the L2L from its parent,
// then one M2L per non-empty interaction-list source in list order. Where,
// at one list position, all m2lBatch targets meet a non-empty source through
// the same derivative tensor, one m2l4 serves them; anywhere else each
// target runs its own M2L. Each L receives its own terms in its own list
// order either way, so the result is bit-identical to sweeping the targets
// one at a time.
func (e *engine) downwardBatch(s *downwardLevel, batch []int, ilBuf *[m2lBatch][maxInteractions]uint64) {
	l, nc := s.l, e.Tab.NCoef()
	var il [m2lBatch][]uint64
	var Ls [m2lBatch][]float64
	n := 0 // the longest interaction list of the batch
	for k, ti := range batch {
		key := s.tl[ti]
		L := make([]float64, nc)
		if l > 1 {
			pk := zorder.Parent(key)
			if Lp := e.L[l-1][pk]; Lp != nil {
				pc := e.center(l-1, pk)
				cc := e.center(l, key)
				e.Tab.l2l(Lp, cc[0]-pc[0], cc[1]-pc[1], cc[2]-pc[2], L)
				s.hadParent[ti] = true
			}
		}
		s.Ls[ti], Ls[k] = L, L
		il[k] = e.interactionList(ilBuf[k][:0], l, key)
		n = max(n, len(il[k]))
	}
	var Ms [m2lBatch][]float64
	var slots [m2lBatch]int
	for j := 0; j < n; j++ {
		same := len(batch) == m2lBatch
		for k, ti := range batch {
			Ms[k] = nil
			if j < len(il[k]) {
				src := il[k][j]
				if M := e.M[l][src]; M != nil {
					Ms[k] = M
					slots[k] = derivSlot(e.wrapOffset(l, s.tl[ti], src))
				}
			}
			same = same && Ms[k] != nil && slots[k] == slots[0]
		}
		if same {
			e.Tab.m2l4(s.derivs[slots[0]], Ms[0], Ms[1], Ms[2], Ms[3], Ls[0], Ls[1], Ls[2], Ls[3])
			for _, ti := range batch {
				s.nM2L[ti]++
			}
			continue
		}
		for k, ti := range batch {
			if Ms[k] != nil {
				e.Tab.M2L(Ms[k], s.derivs[slots[k]], Ls[k])
				s.nM2L[ti]++
			}
		}
	}
}

// evalFarField adds the far-field potential and field of each owned
// particle into pot (length n) and field (length 3n).
func (e *engine) evalFarField(pot, field []float64) {
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
				p, fx, fy, fz := e.Tab.l2p(L, e.pos[3*i]-c[0], e.pos[3*i+1]-c[1], e.pos[3*i+2]-c[2])
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

// evalNearField adds the near-field (neighbor-box direct) contributions of
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
// Where all pairs of a leaf and a source range take the same minimum image,
// it is found once for the range (imageShift), with the same bits.
func (e *engine) evalNearField(pot, field []float64) {
	nb := newNearBounds(e)
	nt := hostpar.Tiles(len(e.leaves), nearGrain)
	ownedC := make([]int, nt)
	ghostC := make([]int, nt)
	hostpar.ForTiles(len(e.leaves), nearGrain, func(t, lo, hi int) {
		// One scratch set per tile, in its frame: tiles never share.
		var ns nearScratch
		for li := lo; li < hi; li++ {
			o, g := e.nearLeaf(li, &nb, &ns, pot, field)
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

// bounds is the coordinate box of a particle range: per axis the least and
// the greatest coordinate, or NaN on both when the axis holds a non-finite
// one.
type bounds struct{ lo, hi [3]float64 }

// nearBounds holds the bounds of every owned leaf and every ghost box of a
// periodic engine, indexed like e.leaves and e.gleaves; evalNearField
// computes them once per sweep.
type nearBounds struct{ leaf, ghost []bounds }

// newNearBounds returns the bounds of e's leaves and ghost boxes; an open
// engine needs none.
func newNearBounds(e *engine) nearBounds {
	if !e.Periodic {
		return nearBounds{}
	}
	return nearBounds{leaf: rangeBounds(e.pos, e.leaves), ghost: rangeBounds(e.gpos, e.gleaves)}
}

// rangeBounds returns the bounds of each range rs[k] of pos.
func rangeBounds(pos []float64, rs []leafRange) []bounds {
	out := make([]bounds, len(rs))
	for k, r := range rs {
		b := bounds{lo: [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)},
			hi: [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}}
		for j := r.lo; j < r.hi; j++ {
			for d := 0; d < 3; d++ {
				x := pos[3*j+d]
				if x-x != 0 { // ±Inf or NaN; no comparison with NaN holds, so it stays
					b.lo[d], b.hi[d] = math.NaN(), math.NaN()
					continue
				}
				if x < b.lo[d] {
					b.lo[d] = x
				}
				if x > b.hi[d] {
					b.hi[d] = x
				}
			}
		}
		out[k] = b
	}
	return out
}

// imageShift returns the per-axis shift that is the minimum image of every
// pair (i of target t, j of source s) of a periodic engine, or false when
// the pairs may take different images. minImage maps dx = fl(x_i − x_j) to
// dx − fl(L·k), k = Round(fl(dx/L)). fl(a − b) is monotone in a and in b,
// fl(x/L) in x for L > 0, and Round in its argument, so every pair's k lies
// between the k of fl(t.lo − s.hi) and that of fl(t.hi − s.lo); where those
// agree, every pair has that k. IEEE a − b is a + (−b), so dx + (−fl(L·k))
// is minImage's result bit for bit; for k = 0 the shift is +0, and dx + 0
// is dx − (±0): dx itself, except that −0 becomes +0 as Round's signed zero
// made it. NaN bounds (a non-finite coordinate) never agree.
//
//parlint:hotalloc
func (e *engine) imageShift(t, s *bounds) (shift [3]float64, ok bool) {
	for d := 0; d < 3; d++ {
		l := e.boxLen[d]
		k := math.Round((t.lo[d] - s.hi[d]) / l)
		if k != math.Round((t.hi[d]-s.lo[d])/l) {
			return shift, false
		}
		if k != 0 {
			shift[d] = -(l * k)
		}
	}
	return shift, true
}

// nearSource is one source range of a leaf's near-field gather, an owned
// leaf or a ghost box, with the image shift all its pairs with the leaf
// take (perPair: they may not, so each takes its own minimum image).
type nearSource struct {
	key     uint64
	ghost   bool
	perPair bool
	shift   [3]float64
	pos, q  []float64 // the range's coordinates and charges
}

// nearScratch holds the buffers of nearLeaf: at most 27 neighbor boxes,
// each an owned leaf and a ghost box.
type nearScratch struct {
	nbs  [27]uint64
	srcs [2 * 27]nearSource
}

// findRange locates the range with the given key in rs, sorted by key.
//
//parlint:hotalloc
func findRange(rs []leafRange, key uint64) (int, bool) {
	return slices.BinarySearchFunc(rs, key, func(r leafRange, k uint64) int { return cmp.Compare(r.key, k) })
}

// nearSource returns leaf li's source for owned leaf or ghost box si.
//
//parlint:hotalloc
func (e *engine) nearSource(nb *nearBounds, li, si int, ghost bool) nearSource {
	rs, pos, q, bs := e.leaves, e.pos, e.q, nb.leaf
	if ghost {
		rs, pos, q, bs = e.gleaves, e.gpos, e.gq, nb.ghost
	}
	r := rs[si]
	s := nearSource{key: r.key, ghost: ghost, perPair: true, pos: pos[3*r.lo : 3*r.hi], q: q[r.lo:r.hi]}
	if e.Periodic {
		var ok bool
		s.shift, ok = e.imageShift(&nb.leaf[li], &bs[si])
		s.perPair = !ok
	}
	return s
}

// nearLeaf gathers the near-field contributions of every particle in leaf
// e.leaves[li] and returns the number of owned and ghost contributions with
// nonzero displacement. ns is caller-provided scratch, reused across the
// leaves of a tile.
//
//parlint:hotalloc
func (e *engine) nearLeaf(li int, nb *nearBounds, ns *nearScratch, pot, field []float64) (own, gh int) {
	lr := e.leaves[li]
	srcs := e.nearSources(li, nb, ns)
	for i := lr.lo; i < lr.hi; i++ {
		for k := range srcs {
			s := &srcs[k]
			n := e.gather(i, s, pot, field)
			if s.ghost {
				gh += n
			} else {
				own += n
			}
		}
	}
	return own, gh
}

// nearSources returns, over ns.srcs, the sources of leaf e.leaves[li] in the
// exact gather order of the symmetric traversal. First come the owned
// neighbor leaves with smaller keys, whose contributions arrived during
// their own (earlier) leaf turns, in ascending key order. Then the own box:
// the j == i term has zero displacement and is skipped, so this is exactly
// "rows before i, then row i" of the pair loops. Then, for each neighbor in
// Neighbors3 order, the owned range (keys above ours) and the ghost range
// (including the same key: a leaf split across processes).
//
//parlint:hotalloc
func (e *engine) nearSources(li int, nb *nearBounds, ns *nearScratch) []nearSource {
	key := e.leaves[li].key
	nbs := zorder.Neighbors3Into(ns.nbs[:0], key, e.Level, e.Periodic)
	srcs := ns.srcs[:0]
	for _, k := range nbs {
		if k < key {
			if si, ok := findRange(e.leaves, k); ok {
				srcs = append(srcs, e.nearSource(nb, li, si, false))
			}
		}
	}
	slices.SortFunc(srcs, func(a, b nearSource) int { return cmp.Compare(a.key, b.key) })
	srcs = append(srcs, e.nearSource(nb, li, li, false))
	for _, k := range nbs {
		if k > key {
			if si, ok := findRange(e.leaves, k); ok {
				srcs = append(srcs, e.nearSource(nb, li, si, false))
			}
		}
		if si, ok := findRange(e.gleaves, k); ok {
			srcs = append(srcs, e.nearSource(nb, li, si, true))
		}
	}
	return srcs
}

// gather accumulates onto owned particle i the contributions of source s
// and returns how many had nonzero displacement. Each pair's displacement
// takes the range's image shift, or its own minimum image where s.perPair.
// The j == i term (and any exactly coincident particle) is skipped on both
// sides of a pair, as in the symmetric update. The accumulators stay in
// registers across the range; each still adds the terms one at a time in
// source order.
//
//parlint:hotalloc
func (e *engine) gather(i int, s *nearSource, pot, field []float64) int {
	n := 0
	xi, yi, zi := e.pos[3*i], e.pos[3*i+1], e.pos[3*i+2]
	sx, sy, sz := s.shift[0], s.shift[1], s.shift[2]
	perPair := s.perPair
	p, fx, fy, fz := pot[i], field[3*i], field[3*i+1], field[3*i+2]
	pos := s.pos
	for j, qj := range s.q {
		pj := pos[3*j : 3*j+3 : 3*j+3]
		dx, dy, dz := xi-pj[0], yi-pj[1], zi-pj[2]
		if perPair {
			dx, dy, dz = e.minImage(dx, dy, dz)
		} else {
			dx, dy, dz = dx+sx, dy+sy, dz+sz
		}
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			continue
		}
		r := math.Sqrt(r2)
		inv := 1 / r
		inv3 := inv / r2
		p += qj * inv
		fx += qj * dx * inv3
		fy += qj * dy * inv3
		fz += qj * dz * inv3
		n++
	}
	pot[i], field[3*i], field[3*i+1], field[3*i+2] = p, fx, fy, fz
	return n
}

// SolveSerial runs the whole FMM on a single process: particles need not be
// sorted; results are returned in input order. It is the reference path for
// accuracy tests and the degenerate single-rank case.
func SolveSerial(tab *Tables, box particle.Box, level int, pos, q, pot, field []float64) {
	n := len(q)
	keys := make([]uint64, n)
	ord := make([]int, n)
	tmp := &engine{Tab: tab, Box: box, Level: level,
		Periodic: box.Periodic[0] && box.Periodic[1] && box.Periodic[2]}
	for i := 0; i < n; i++ {
		keys[i] = tmp.keyOf(pos[3*i], pos[3*i+1], pos[3*i+2])
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
	e := newEngine(tab, box, level, spos, sq, skeys)
	e.upward()
	e.downward()
	sp := make([]float64, n)
	sf := make([]float64, 3*n)
	e.evalFarField(sp, sf)
	e.evalNearField(sp, sf)
	for out, in := range ord {
		pot[in] = sp[out]
		field[3*in] = sf[3*out]
		field[3*in+1] = sf[3*out+1]
		field[3*in+2] = sf[3*out+2]
	}
}
