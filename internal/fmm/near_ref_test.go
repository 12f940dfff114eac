package fmm

import (
	"math"
	"sort"

	"repro/internal/costs"
	"repro/internal/hostpar"
	"repro/internal/zorder"
)

// refEvalNearField is engine.evalNearField as it stood before the image
// shift was hoisted out of the pair loop: every particle pair takes its own
// minimum image. The bodies (refNearLeaf, refGatherOwned, refGatherGhost)
// are kept verbatim as the oracle for the hoisted gather, except that the
// leaf and ghost-box lookups go through refFindLeaf and refFindGhost:
// TestNearFieldMatchesPerPair demands bit-identical pot, field and
// CostSeconds.
func refEvalNearField(e *engine, pot, field []float64) {
	nt := hostpar.Tiles(len(e.leaves), nearGrain)
	ownedC := make([]int, nt)
	ghostC := make([]int, nt)
	hostpar.ForTiles(len(e.leaves), nearGrain, func(t, lo, hi int) {
		// One scratch set per tile: nearLeaf itself is then allocation-free,
		// and tiles never share (no cross-goroutine races).
		var ns refNearScratch
		for li := lo; li < hi; li++ {
			o, g := refNearLeaf(e, e.leaves[li], &ns, pot, field)
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

// refNearRange is one hoisted neighbor lookup of the near-field gather: an
// owned leaf range or a ghost range, in gather order.
type refNearRange struct {
	ghost  bool
	lo, hi int
}

// refNearScratch holds the per-tile reusable buffers of refNearLeaf.
type refNearScratch struct {
	nbs     []uint64
	earlier []leafRange
	later   []refNearRange
}

// refFindLeaf locates an owned leaf range by key.
func refFindLeaf(e *engine, key uint64) (leafRange, bool) {
	i := sort.Search(len(e.leaves), func(i int) bool { return e.leaves[i].key >= key })
	if i < len(e.leaves) && e.leaves[i].key == key {
		return e.leaves[i], true
	}
	return leafRange{}, false
}

// refFindGhost locates a ghost box's [lo, hi) by key.
func refFindGhost(e *engine, key uint64) ([2]int, bool) {
	i, ok := findRange(e.gleaves, key)
	if !ok {
		return [2]int{}, false
	}
	return [2]int{e.gleaves[i].lo, e.gleaves[i].hi}, true
}

// refNearLeaf gathers the near-field contributions of every particle in
// leaf lr and returns the number of owned and ghost contributions with
// nonzero displacement.
func refNearLeaf(e *engine, lr leafRange, ns *refNearScratch, pot, field []float64) (own, gh int) {
	ns.nbs = zorder.Neighbors3Into(ns.nbs, lr.key, e.Level, e.Periodic)
	nbs := ns.nbs
	// Owned neighbor leaves with smaller keys: in the symmetric traversal
	// their contributions arrived during their own (earlier) leaf turns, in
	// ascending key order.
	ns.earlier = ns.earlier[:0]
	for _, nb := range nbs {
		if nb < lr.key {
			if rr, ok := refFindLeaf(e, nb); ok {
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
			if rr, ok := refFindLeaf(e, nb); ok {
				ns.later = append(ns.later, refNearRange{false, rr.lo, rr.hi})
			}
		}
		// Ghosts in the neighbor box (including the same key: a leaf
		// split across processes).
		if gr, ok := refFindGhost(e, nb); ok {
			ns.later = append(ns.later, refNearRange{true, gr[0], gr[1]})
		}
	}
	later := ns.later
	for i := lr.lo; i < lr.hi; i++ {
		for _, rr := range earlier {
			own += refGatherOwned(e, i, rr.lo, rr.hi, pot, field)
		}
		// Own box: the j == i term has zero displacement and is skipped, so
		// this is exactly "rows before i, then row i" of the pair loops.
		own += refGatherOwned(e, i, lr.lo, lr.hi, pot, field)
		for _, a := range later {
			if a.ghost {
				gh += refGatherGhost(e, i, a.lo, a.hi, pot, field)
			} else {
				own += refGatherOwned(e, i, a.lo, a.hi, pot, field)
			}
		}
	}
	return own, gh
}

// refGatherOwned accumulates onto owned particle i the contributions of the
// owned particles in [jlo, jhi), returning how many had nonzero
// displacement.
func refGatherOwned(e *engine, i, jlo, jhi int, pot, field []float64) int {
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

// refGatherGhost accumulates onto owned particle i the contributions of the
// ghost particles in [jlo, jhi).
func refGatherGhost(e *engine, i, jlo, jhi int, pot, field []float64) int {
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
