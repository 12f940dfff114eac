package vmpi

// Replayer.Group: a replay's independent charges on idle cores. A group is
// n tasks that each charge a set of ranks no other task of the group names
// — the comparators of one step of a sorting network. A charge touches
// only its own ranks' slots (clock, counters, trace events) and sendClocks
// is a pure function, so the tasks may run in any order, on any goroutine:
// every rank still sees its own charges in program order, and clocks,
// counters and events come out bit for bit. A group is a hostpar.For over
// tiles of groupGrain tasks, whose workers stay hot between the groups of
// a replay.

import (
	"fmt"

	"repro/internal/hostpar"
)

// groupGrain is the tile of a parallel group, and the largest group that
// runs inline.
const groupGrain = 64

// Group runs fn(i) for every i in [0, n) and returns when all have run. The
// tasks may run in any order and concurrently, so each must charge, through
// Send, Recv and Compute only, ranks that no other task of the group names,
// and touch nothing shared but what its own ranks own: each rank's charges
// must still come in its program order. Allgather, Alltoall and
// AlltoallLinear charge every rank and share the rendezvous' scratch, so
// they, and a nested Group, panic inside a group. A panic in a task ends
// its tile and is re-raised here once every tile has finished — the lowest
// i's, as the serial loop would raise. Under vmpidebug every group runs
// inline in order, and panics if two of its tasks charge one rank.
func (h *Replayer) Group(n int, fn func(i int)) {
	h.enter("Group")
	h.grouped = true
	defer func() { h.grouped = false }()
	if debugGroup(h.g, n, fn) {
		return
	}
	hostpar.For(n, groupGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// enter panics if a charge that touches every rank is made inside a group.
func (h *Replayer) enter(what string) {
	if h.grouped {
		panic(fmt.Sprintf("vmpi: Replayer.%s inside a Group", what))
	}
}
