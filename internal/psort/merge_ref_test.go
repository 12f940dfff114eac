package psort

import (
	"math/bits"

	"repro/internal/vmpi"
)

// The message-level merge-exchange network: every rank walks its own
// comparators (rankSteps) and runs each as a mergeSplit, sending exactly
// the messages SortMerge's rendezvous replays (mergeNetwork). Kept as the
// reference it is checked against (FuzzSortMergeMatchesMessageLevel).

func refSortMerge[T any](c *vmpi.Comm, items []T, key func(T) uint64) []T {
	p := c.Size()
	LocalSort(c, items, key)
	if p == 1 {
		return items
	}
	me := c.Rank()
	// spare ping-pongs with items through the merge-split rounds, so the
	// whole network reuses two buffers instead of allocating per round.
	var spare []T
	rankSteps(p, me, func(partner int, keepLow bool) {
		items, spare = mergeSplit(c, items, key, partner, keepLow, spare)
	})
	return cleanup(c, items, key, spare)
}

// rankSteps calls step for every comparator of the n-input merge-exchange
// network that touches input me, in network order: the partner, and whether
// me keeps the low (comparator input I) or high (input J) half. The
// comparators of one (p,q,r,d) group of MergeExchangeSchedule are disjoint
// and d flips bit p, so me is in at most one per group — as I when
// me&p == r, as J when (me-d)&p == r — and walking the O(log² n) groups
// yields exactly me's share of the full ~(n/2)·log² n sequence without
// materialising any of it.
func rankSteps(n, me int, step func(partner int, keepLow bool)) {
	if n < 2 {
		return
	}
	top := 1 << (bits.Len(uint(n-1)) - 1)
	for p := top; p > 0; p >>= 1 {
		for q, r, d := top, 0, p; ; d, q, r = q-p, q>>1, p {
			if me&p == r && me+d < n {
				step(me+d, true)
			} else if me >= d && (me-d)&p == r {
				step(me-d, false)
			}
			if q == p {
				break
			}
		}
	}
}
