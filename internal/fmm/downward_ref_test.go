package fmm

import (
	"repro/internal/costs"
	"repro/internal/hostpar"
	"repro/internal/zorder"
)

// refTargetGrain is the per-target sweep's tile grain: target boxes per
// tile.
const refTargetGrain = 2

// refDownward is engine.downward as it stood before the batched M2L: each
// level's targets run one at a time, one M2L per non-empty interaction-list
// source. The body is kept verbatim as the oracle for the octant batches:
// TestDownwardMatchesPerTarget demands bit-identical local expansions and
// CostSeconds.
func refDownward(e *engine) {
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
		hostpar.For(len(tl), refTargetGrain, func(lo, hi int) {
			var ilBuf [maxInteractions]uint64
			for ti := lo; ti < hi; ti++ {
				key := tl[ti]
				L := make([]float64, nc)
				if l > 1 {
					pk := zorder.Parent(key)
					if Lp := e.L[l-1][pk]; Lp != nil {
						pc := e.center(l-1, pk)
						cc := e.center(l, key)
						e.Tab.l2l(Lp, cc[0]-pc[0], cc[1]-pc[1], cc[2]-pc[2], L)
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
				e.CostSeconds += float64(e.Tab.m2lOps()) * costs.MultipoleTerm
			}
			e.L[l][key] = Ls[ti]
		}
	}
}
