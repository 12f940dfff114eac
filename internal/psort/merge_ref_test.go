package psort

import (
	"math/bits"
	"unsafe"

	"repro/internal/costs"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// The message-level sorts: every rank walks its own comparators (rankSteps)
// and runs each as a mergeSplit, then the odd-even cleanup (refCleanup);
// the rotational sort sends its rotations as Sendrecvs. Each sends exactly
// the messages the rendezvous replays (merger, rotate). Kept as the
// reference they are checked against (FuzzSortMergeMatchesMessageLevel).

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
	return refCleanup(c, items, key, spare)
}

// ce is one comparator of a sorting network: compare-exchange between
// network inputs I < J.
type ce struct{ I, J int }

// mergeExchangeSchedule materialises mergeExchange's comparator sequence.
func mergeExchangeSchedule(n int) []ce {
	var out []ce
	mergeExchange(n, func(i, j int) { out = append(out, ce{I: i, J: j}) })
	return out
}

// rankSteps calls step for every comparator of the n-input merge-exchange
// network that touches input me, in network order: the partner, and whether
// me keeps the low (comparator input I) or high (input J) half. The
// comparators of one (p,q,r,d) group of mergeExchange are disjoint and d
// flips bit p, so me is in at most one per group — as I when me&p == r, as
// J when (me-d)&p == r — and walking the O(log² n) groups yields exactly
// me's share of the full ~(n/2)·log² n sequence without materialising any
// of it.
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

// mergeSplit performs one comparator step with partner, the messages and
// charges merger.split replays. keepLow selects whether this rank keeps the
// lower (comparator input i) or upper (input j) part of the merged
// sequence. spare is a reusable merge buffer: the returned pair is (new
// items, new spare).
func mergeSplit[T any](c *vmpi.Comm, items []T, key func(T) uint64, partner int, keepLow bool, spare []T) ([]T, []T) {
	h := headerOf(items, key)
	ph := vmpi.SendrecvVal(c, h, partner, partner, tagHeader)
	lo, hi := h, ph
	if !keepLow {
		lo, hi = ph, h
	}
	if lo.ordered(hi) {
		return items, spare
	}
	k := candidates(items, key, keepLow, ph)
	t := min(k, int(vmpi.SendrecvVal(c, int64(k), partner, partner, tagCount)))
	if t == 0 {
		return items, spare
	}
	n := len(items)
	send, merge, merged := items[:t], mergeHigh[T], t+n
	if keepLow {
		send, merge, merged = items[n-t:], mergeLow[T], n
	}
	theirs := vmpi.Sendrecv(c, send, partner, partner, tagData)
	c.Compute(costs.RedistElem * float64(2*t))
	items, spare = merge(items, theirs, spare, key)
	c.Compute(costs.MergeTime(merged, 2))
	vmpi.Release(theirs)
	return items, spare
}

// refCleanup is merger.cleanup rank by rank: the counts allgather, then
// odd-even rounds over the chain of non-empty ranks, each after an
// allgather of every rank's header that finds the boundaries out of order.
func refCleanup[T any](c *vmpi.Comm, items []T, key func(T) uint64, spare []T) []T {
	counts := vmpi.Allgather(c, []int64{int64(len(items))})
	var chain []int
	myIdx, total := -1, int64(0)
	for r, n := range counts {
		if n > 0 {
			if r == c.Rank() {
				myIdx = len(chain)
			}
			chain = append(chain, r)
		}
		total += n
	}
	vmpi.Release(counts)
	even := true
	for round := int64(0); !globallySorted(c, items, key); round++ {
		if round > 2*total+8 {
			panic("psort: odd-even cleanup failed to converge")
		}
		items, spare = oddEvenRound(c, items, key, chain, myIdx, even, spare)
		even = !even
	}
	return items
}

// globallySorted checks (collectively) that rank boundaries are
// non-decreasing, skipping empty ranks.
func globallySorted[T any](c *vmpi.Comm, items []T, key func(T) uint64) bool {
	all := vmpi.Allgather(c, []header{headerOf(items, key)})
	sorted := true
	prevMax := uint64(0)
	have := false
	for _, e := range all {
		if e.Count == 0 {
			continue
		}
		if have && e.Min < prevMax {
			sorted = false
			break
		}
		prevMax = e.Max
		have = true
	}
	vmpi.Release(all)
	return sorted
}

// oddEvenRound performs one block transposition round over the chain of
// non-empty ranks: adjacent chain pairs starting at even or odd chain
// positions merge-split. myIdx is the calling rank's position in the chain,
// or -1 if it is empty (and therefore idle).
func oddEvenRound[T any](c *vmpi.Comm, items []T, key func(T) uint64, chain []int, myIdx int, even bool, spare []T) ([]T, []T) {
	if myIdx < 0 {
		return items, spare
	}
	start := 0
	if !even {
		start = 1
	}
	off := myIdx - start
	if off >= 0 && off%2 == 0 && myIdx+1 < len(chain) {
		return mergeSplit(c, items, key, chain[myIdx+1], true, spare)
	}
	if off >= 1 && off%2 == 1 {
		return mergeSplit(c, items, key, chain[myIdx-1], false, spare)
	}
	return items, spare
}

// refSortRotational sends each rotation as a Sendrecv to rank+dist from
// rank-dist.
func refSortRotational[T any](c *vmpi.Comm, items []T, key func(T) uint64) []T {
	p := c.Size()
	LocalSort(c, items, key)
	if p == 1 {
		return items
	}
	splitters := exactSplitters(c, items, key)
	self := c.Rank()
	cur := items
	var keep, send []T
	peak := int64(0)
	elem := int64(unsafe.Sizeof(*new(T)))
	for dist := 1; dist < p; dist <<= 1 {
		keep, send = rotation(cur, send[:0], key, splitters, self, dist)
		got := vmpi.Sendrecv(c, send, (self+dist)%p, (self-dist+p)%p, tagRot)
		c.Compute(costs.Move*float64(len(keep)) + costs.RedistElem*float64(len(send)+len(got)))
		cur = append(keep, got...)
		vmpi.Release(got)
		peak = max(peak, int64(len(send))*elem)
	}
	LocalSort(c, cur, key)
	if c.MaxExchangeBytes() > 0 {
		c.Gauge(redist.MeterPeakBytes, float64(peak))
		c.Counter(redist.MeterPeakBytes, float64(peak))
	}
	return cur
}
