package redist

import (
	"fmt"

	"repro/internal/vmpi"
)

// blockPart describes the block partition of total elements over p parts:
// the first total%p parts hold ⌈total/p⌉ elements, the rest ⌊total/p⌋ —
// the same balanced decomposition the initial particle distribution uses,
// so a remap onto it restores perfect balance.
type blockPart struct {
	Total int64
	P     int
}

// Owner returns the part owning global element g.
func (b blockPart) Owner(g int64) int {
	q := b.Total / int64(b.P)
	rem := b.Total % int64(b.P)
	if g < rem*(q+1) {
		return int(g / (q + 1))
	}
	return int(rem + (g-rem*(q+1))/q)
}

// Count returns the number of elements part r owns.
func (b blockPart) Count(r int) int {
	q := b.Total / int64(b.P)
	if int64(r) < b.Total%int64(b.P) {
		return int(q + 1)
	}
	return int(q)
}

// RemapBlocks redistributes items from the current per-rank distribution
// onto the balanced block partition over the first newP ranks of the
// communicator: the globally concatenated element sequence (rank order,
// local order) is split into newP consecutive blocks and block r is
// delivered to rank r. Ranks at or beyond newP end up empty — the P→P′
// remap that precedes retiring them from an elastic world (and, run on an
// already-grown world with newP == Size, the remap that seeds admitted
// ranks). Collective; preserves the global element order.
func RemapBlocks[T any](c *vmpi.Comm, items []T, newP int) []T {
	if newP < 1 || newP > c.Size() {
		panic(fmt.Sprintf("redist: RemapBlocks to %d ranks on a size-%d communicator", newP, c.Size()))
	}
	n := int64(len(items))
	off := vmpi.Exscan(c, []int64{n}, vmpi.Sum[int64])[0]
	part := blockPart{Total: vmpi.AllreduceVal(c, n, vmpi.Sum[int64]), P: newP}
	pl := NewPlan(c, len(items), ToRank(func(i int) int {
		return part.Owner(off + int64(i))
	}), Options{})
	out := Execute(pl, items)
	pl.Free()
	if c.Rank() < newP {
		if want := part.Count(c.Rank()); len(out) != want {
			panic(fmt.Sprintf("redist: remap delivered %d elements to rank %d, want %d", len(out), c.Rank(), want))
		}
	} else if len(out) != 0 {
		panic(fmt.Sprintf("redist: remap delivered %d elements to retiring rank %d", len(out), c.Rank()))
	}
	return out
}
