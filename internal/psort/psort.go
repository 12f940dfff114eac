// Package psort provides the two parallel sorting methods the paper's FMM
// solver switches between (§III-A, §III-B):
//
//   - SortPartition: a partition-based parallel sort (paper reference [12]).
//     Ranks sort locally, agree on p-1 key splitters, exchange elements with
//     a collective all-to-all, and merge. The output is globally sorted and
//     approximately balanced, but every rank may communicate with every
//     other rank.
//   - SortMerge: a merge-based parallel sort (references [15], [16]). Ranks
//     sort locally, then perform pairwise merge-split steps following
//     Batcher's merge-exchange sorting network, using point-to-point
//     communication only. Per-rank element counts are preserved. For almost
//     sorted inputs — the common case when particles move only slightly per
//     time step — most pairs detect from a small header exchange that no
//     data needs to move, so the network's data volume collapses.
//
// "Point-to-point only" describes the modelled algorithm: every comparator
// is charged as its pair's messages. On the host the network and its
// odd-even cleanup run as one vmpi.Replay (merger), as do the rotational
// sort's rotations: psort sends no message of its own.
//
// Both sorts order elements by a uint64 key extracted with a caller-supplied
// function and are deterministic, including for duplicate keys.
package psort

import (
	"math/bits"
	"sort"
	"unsafe"

	"repro/internal/costs"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// Tags SortMerge's header, count and data exchanges and the rotational
// sort's per-round rotations are charged on.
const (
	tagHeader = 101
	tagData   = 102
	tagCount  = 103
	tagRot    = 104
)

// keyedSorter sorts items and their extracted keys together, so the
// comparator reads cached keys instead of re-extracting them O(n log n)
// times. Stability (and therefore the permutation for duplicate keys) is
// identical to stably sorting items with a key-extracting comparator.
type keyedSorter[T any] struct {
	items []T
	keys  []uint64
}

func (s *keyedSorter[T]) Len() int           { return len(s.items) }
func (s *keyedSorter[T]) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyedSorter[T]) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// LocalSort stably sorts items by key and charges the cost of an adaptive
// merge sort to the rank's virtual clock if c is non-nil: almost sorted
// inputs — the method B steady state — cost little more than a scan, as
// with the merge-based local sorting of the paper's sorting library
// (reference [15]). Keys are extracted once during the sortedness scan and
// cached for the sort.
func LocalSort[T any](c *vmpi.Comm, items []T, key func(T) uint64) {
	keys := make([]uint64, len(items))
	breaks := 0
	for i := range items {
		keys[i] = key(items[i])
		if i > 0 && keys[i-1] > keys[i] {
			breaks++
		}
	}
	if breaks > 0 {
		sort.Stable(&keyedSorter[T]{items: items, keys: keys})
	}
	if c != nil {
		c.Compute(costs.AdaptiveSortTime(len(items), breaks))
	}
}

// IsSorted reports whether items are locally non-decreasing in key.
func IsSorted[T any](items []T, key func(T) uint64) bool {
	for i := 1; i < len(items); i++ {
		if key(items[i-1]) > key(items[i]) {
			return false
		}
	}
	return true
}

// SortPartition globally sorts items across the ranks of c: after the call,
// every rank holds a locally sorted slice and all keys on rank r are <= all
// keys on rank r+1. Splitters are determined by exact splitting — a
// collective bisection over the key space that balances element counts up
// to key multiplicities (the partitioning algorithm of paper reference
// [12]) — so the distribution cannot drift over repeated sorts. Element
// exchange uses a collective all-to-all.
func SortPartition[T any](c *vmpi.Comm, items []T, key func(T) uint64) []T {
	p := c.Size()
	LocalSort(c, items, key)
	if p == 1 {
		return items
	}
	splitters := exactSplitters(c, items, key)

	// Partition the local run: elements with key < splitters[r] (binary
	// search) go to rank r.
	parts := make([][]T, p)
	lo := 0
	for r := 0; r < p; r++ {
		hi := len(items)
		if r < len(splitters) {
			s := splitters[r]
			hi = lo + sort.Search(len(items)-lo, func(i int) bool { return key(items[lo+i]) >= s })
		}
		parts[r] = items[lo:hi]
		lo = hi
	}
	c.Compute(exchangeCost(c.Rank(), parts)) // pack into send buffers

	// Plan-backed block exchange: the copying collective when no memory
	// budget is configured, bounded rounds under one.
	recv := redist.ExchangeBlocks(c, parts)

	// Merge the received sorted runs. Received blocks are in source-rank
	// order; a stable sort keeps ties deterministic.
	merged := make([]T, 0, totalLen(recv))
	for _, b := range recv {
		merged = append(merged, b...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return key(merged[i]) < key(merged[j]) })
	c.Compute(exchangeCost(c.Rank(), recv) + costs.MergeTime(len(merged), p))
	vmpi.ReleaseBlocks(recv)
	return merged
}

// exchangeCost prices element transfer: elements crossing ranks pay the
// fine-grained redistribution handling cost, local ones a memory move.
func exchangeCost[T any](self int, parts [][]T) float64 {
	cost := 0.0
	for r, b := range parts {
		if r == self {
			cost += costs.Move * float64(len(b))
		} else {
			cost += costs.RedistElem * float64(len(b))
		}
	}
	return cost
}

// exactSplitters finds p-1 splitter keys such that the number of elements
// with key < splitter[i] equals the target prefix count (i+1)*total/p, up
// to key multiplicities, via a collective bisection over the key value
// space. All splitters are searched simultaneously: one small allreduce
// per bisection round.
func exactSplitters[T any](c *vmpi.Comm, items []T, key func(T) uint64) []uint64 {
	p := c.Size()
	n := len(items)
	// Global bounds and total count.
	locMin, locMax := ^uint64(0), uint64(0)
	if n > 0 {
		locMin = key(items[0])
		locMax = key(items[n-1])
	}
	agg := vmpi.Allreduce(c, []uint64{^locMin, locMax}, vmpi.Max[uint64])
	globalMin := ^agg[0]
	globalMax := agg[1]
	total := int64(vmpi.AllreduceVal(c, uint64(n), vmpi.Sum[uint64]))
	if total == 0 {
		return make([]uint64, p-1)
	}
	lo := make([]uint64, p-1)
	hi := make([]uint64, p-1)
	targets := make([]int64, p-1)
	for i := range lo {
		lo[i] = globalMin
		hi[i] = globalMax + 1
		targets[i] = int64(i+1) * total / int64(p)
	}
	counts := make([]int64, p-1)
	for {
		done := true
		for i := range lo {
			if lo[i] < hi[i] {
				done = false
			}
		}
		if done {
			break
		}
		for i := range lo {
			mid := lo[i] + (hi[i]-lo[i])/2
			counts[i] = int64(sort.Search(n, func(j int) bool { return key(items[j]) >= mid }))
		}
		c.Compute(costs.Compare * float64(p) * 32)
		global := vmpi.Allreduce(c, counts, vmpi.Sum[int64])
		for i := range lo {
			if lo[i] >= hi[i] {
				continue
			}
			mid := lo[i] + (hi[i]-lo[i])/2
			if global[i] < targets[i] {
				lo[i] = mid + 1
			} else {
				hi[i] = mid
			}
		}
	}
	return lo
}

// SortMerge globally sorts items across the ranks of c with Batcher's
// merge-exchange network of pairwise merge-split steps. Per-rank element
// counts are preserved: rank r ends with exactly as many elements as it
// started with. Before each pairwise data exchange, the pair trades a small
// header (count, min, max); if the pair is already ordered, the element
// exchange is skipped entirely — the property that makes this method cheap
// for almost sorted data.
func SortMerge[T any](c *vmpi.Comm, items []T, key func(T) uint64) []T {
	LocalSort(c, items, key)
	if c.Size() == 1 {
		return items
	}
	st := mergeState[T]{items: items}
	vmpi.Replay(c, "SortMerge", &st, func(h *vmpi.Replayer, states []*mergeState[T]) {
		m := merger[T]{h, states, key}
		mergeExchange(len(states), m.split)
		m.cleanup()
	})
	return st.items
}

// mergeState is one rank's side of the sort: its items and the spare
// buffer they ping-pong with, so the whole sort reuses two buffers instead
// of allocating per comparator.
type mergeState[T any] struct{ items, spare []T }

// merger replays a merge sort over every rank's state.
type merger[T any] struct {
	h      *vmpi.Replayer
	states []*mergeState[T]
	key    func(T) uint64
}

// split replays the comparator with rank i on its low input and j on its
// high one, charging each of the two what a message-level merge-split
// charges it, in program order — the header exchange; unless the pair is
// ordered, the count exchange; unless t = 0, the data exchange,
// RedistElem·2t and the merge — and merges both sides in place.
//
// The exchange is count-negotiated: at most t = min(k_i, k_j) elements can
// change sides, where k_i is the number of i's elements above j's minimum
// and k_j the number of j's elements below i's maximum (every element that
// enters the low side displaces a larger one, and vice versa). Each side
// therefore sends only its t boundary elements. Almost sorted data — even
// with a few Z-curve stragglers that jumped across the whole key range —
// exchanges only those few elements, the property the paper's merge-based
// sorting exploits (§III-B).
func (m *merger[T]) split(i, j int) {
	lo, hi, key := m.states[i], m.states[j], m.key
	hl, hh := headerOf(lo.items, key), headerOf(hi.items, key)
	exchange(m.h, i, j, int(unsafe.Sizeof(hl)), tagHeader)
	if hl.ordered(hh) {
		return
	}
	exchange(m.h, i, j, int(unsafe.Sizeof(int64(0))), tagCount)
	t := min(candidates(lo.items, key, true, hh), candidates(hi.items, key, false, hl))
	if t == 0 {
		return
	}
	exchange(m.h, i, j, t*int(unsafe.Sizeof(*new(T))), tagData)
	m.h.Compute(i, costs.RedistElem*float64(2*t))
	m.h.Compute(j, costs.RedistElem*float64(2*t))
	nl, nh, low := len(lo.items), len(hi.items), lo.items
	lo.items, lo.spare = mergeLow(lo.items, hi.items[:t], lo.spare, key)
	hi.items, hi.spare = mergeHigh(hi.items, low[nl-t:], hi.spare, key)
	m.h.Compute(i, costs.MergeTime(nl, 2))
	m.h.Compute(j, costs.MergeTime(t+nh, 2))
}

// exchange charges a Sendrecv of bytes on tag between ranks i and j: each
// sends, then receives.
func exchange(h *vmpi.Replayer, i, j, bytes, tag int) {
	ai, aj := h.Send(i, j, bytes, tag), h.Send(j, i, bytes, tag)
	h.Recv(j, i, bytes, aj)
	h.Recv(i, j, bytes, ai)
}

// cleanup finishes the network. Batcher's network provably sorts
// equal-size blocks; with unequal per-rank counts (and in particular with
// empty ranks, through which no element can flow because merge-split
// preserves counts) residual inversions are possible. Clean up with
// odd-even block transposition rounds over the chain of non-empty ranks
// until the global boundary check passes — for almost sorted inputs
// typically zero rounds. The chain comes from an allgather of the counts;
// the check is an allgather of every rank's header before each round.
func (m *merger[T]) cleanup() {
	m.h.Allgather(func(int) int { return int(unsafe.Sizeof(int64(0))) })
	var chain []int
	total := 0
	for r, s := range m.states {
		if len(s.items) > 0 {
			chain = append(chain, r)
		}
		total += len(s.items)
	}
	// Each pair of rounds fixes at least one boundary inversion, but a
	// low-capacity rank in the middle of the chain throttles element flow
	// to its capacity per two rounds, so the worst-case round count is
	// bounded by the total element count, not the chain length. Almost
	// sorted inputs — the method's intended regime — need zero or very few
	// rounds.
	for round := 0; ; round++ {
		m.h.Allgather(func(int) int { return int(unsafe.Sizeof(header{})) })
		if m.sorted() {
			return
		}
		if round > 2*total+8 {
			panic("psort: odd-even cleanup failed to converge")
		}
		for k := round % 2; k+1 < len(chain); k += 2 {
			m.split(chain[k], chain[k+1])
		}
	}
}

// sorted reports whether the rank boundaries are non-decreasing, skipping
// empty ranks; every rank is locally sorted.
func (m *merger[T]) sorted() bool {
	prevMax, have := uint64(0), false
	for _, s := range m.states {
		if h := headerOf(s.items, m.key); h.Count > 0 {
			if have && h.Min < prevMax {
				return false
			}
			prevMax, have = h.Max, true
		}
	}
	return true
}

// header describes one side of a merge-split pair.
type header struct {
	Count    int64
	Min, Max uint64
}

// headerOf is the header a rank holding sorted items sends.
func headerOf[T any](items []T, key func(T) uint64) header {
	h := header{Count: int64(len(items))}
	if len(items) > 0 {
		h.Min = key(items[0])
		h.Max = key(items[len(items)-1])
	}
	return h
}

// ordered reports whether the comparator with lo on its low input and hi on
// its high one moves nothing: a side is empty or the pair is in order.
func (lo header) ordered(hi header) bool {
	return lo.Count == 0 || hi.Count == 0 || lo.Max <= hi.Min
}

// candidates counts the elements of items that can change sides against
// the partner's header ph: on the low side those above its minimum, on the
// high side those below its maximum.
func candidates[T any](items []T, key func(T) uint64, keepLow bool, ph header) int {
	n := len(items)
	if keepLow {
		return n - sort.Search(n, func(i int) bool { return key(items[i]) > ph.Min })
	}
	return sort.Search(n, func(i int) bool { return key(items[i]) >= ph.Max })
}

// mergeLow keeps the n = len(items) smallest of items and theirLow, the
// partner's smallest, ties keeping the lower comparator input (items)
// first. They land in spare; items becomes the new spare.
func mergeLow[T any](items, theirLow, spare []T, key func(T) uint64) ([]T, []T) {
	n := len(items)
	out := spare[:0]
	if cap(out) < n {
		out = make([]T, 0, n)
	}
	li, hi := 0, 0
	for len(out) < n {
		if li < n && (hi >= len(theirLow) || key(items[li]) <= key(theirLow[hi])) {
			out = append(out, items[li])
			li++
		} else {
			out = append(out, theirLow[hi])
			hi++
		}
	}
	return out, items
}

// mergeHigh keeps the n = len(items) largest of theirHigh, the partner's
// largest, and items in items: the merged order puts the lower input
// (partner) first on ties, and the last n stay. spare holds the merge.
func mergeHigh[T any](items, theirHigh, spare []T, key func(T) uint64) ([]T, []T) {
	n := len(items)
	total := len(theirHigh) + n
	merged := spare[:0]
	if cap(merged) < total {
		merged = make([]T, 0, total)
	}
	li, hi := 0, 0
	for li < len(theirHigh) || hi < n {
		if li < len(theirHigh) && (hi >= n || key(theirHigh[li]) <= key(items[hi])) {
			merged = append(merged, theirHigh[li])
			li++
		} else {
			merged = append(merged, items[hi])
			hi++
		}
	}
	copy(items, merged[total-n:])
	return items, merged[:0]
}

// mergeExchange calls ce for every comparator of Batcher's merge-exchange
// sorting network for n inputs (Knuth, TAOCP vol. 3, Algorithm 5.2.2M), in
// pass order, without materialising it. The comparators of one (p,q,r,d)
// group touch disjoint input pairs, so every input meets its comparators in
// its own program order.
func mergeExchange(n int, ce func(i, j int)) {
	if n < 2 {
		return
	}
	top := 1 << (bits.Len(uint(n-1)) - 1)
	for p := top; p > 0; p >>= 1 {
		for q, r, d := top, 0, p; ; d, q, r = q-p, q>>1, p {
			for i := 0; i+d < n; i++ {
				if i&p == r {
					ce(i, i+d)
				}
			}
			if q == p {
				break
			}
		}
	}
}

func totalLen[T any](blocks [][]T) int {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	return n
}
