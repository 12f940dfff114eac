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
// Both sorts order elements by a uint64 key extracted with a caller-supplied
// function and are deterministic, including for duplicate keys.
package psort

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/costs"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// Tags used by SortMerge header/count/data exchanges and the rotational
// sort's per-round rotations.
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
	// Batcher's network provably sorts equal-size blocks; with unequal
	// per-rank counts (and in particular with empty ranks, through which no
	// element can flow because merge-split preserves counts) residual
	// inversions are possible. Clean up with odd-even block transposition
	// rounds over the chain of non-empty ranks until the global boundary
	// check passes — for almost sorted inputs typically zero rounds.
	//
	// Every rank derives the identical chain from the identical counts
	// vector, so the chain table is shared per network size (sharedChain)
	// instead of materialized P times. The chain cache keeps the counts
	// vector, so it is not released.
	counts := vmpi.Allgather(c, []int64{int64(len(items))})
	nonEmpty, myIdx, total := sharedChain(p, counts, c.Rank())
	// Each pair of rounds fixes at least one boundary inversion, but a
	// low-capacity rank in the middle of the chain throttles element flow
	// to its capacity per two rounds, so the worst-case round count is
	// bounded by the total element count, not the chain length. Almost
	// sorted inputs — the method's intended regime — need zero or very few
	// rounds.
	even := true
	for round := int64(0); !globallySorted(c, items, key); round++ {
		if round > 2*total+8 {
			panic("psort: odd-even cleanup failed to converge")
		}
		items, spare = oddEvenRound(c, items, key, nonEmpty, myIdx, even, spare)
		even = !even
	}
	return items
}

// globallySorted checks (collectively) that every rank is locally sorted
// and rank boundaries are non-decreasing, skipping empty ranks.
func globallySorted[T any](c *vmpi.Comm, items []T, key func(T) uint64) bool {
	h := header{Count: int64(len(items))}
	if len(items) > 0 {
		h.Min = key(items[0])
		h.Max = key(items[len(items)-1])
	}
	all := vmpi.Allgather(c, []header{h})
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

// header describes one side of a merge-split pair.
type header struct {
	Count    int64
	Min, Max uint64
}

// mergeSplit performs one comparator step with partner. keepLow selects
// whether this rank keeps the lower (comparator input i) or upper (input j)
// part of the merged sequence. The local count is preserved. spare is a
// reusable merge buffer: the returned pair is (new items, new spare), with
// the buffers swapped when an exchange happened, so repeated rounds recycle
// the same two allocations.
//
// The exchange is count-negotiated: at most t = min(k_i, k_j) elements can
// change sides, where k_i is the number of i's elements above j's minimum
// and k_j the number of j's elements below i's maximum (every element that
// enters the low side displaces a larger one, and vice versa). Each side
// therefore sends only its t boundary elements. Almost sorted data — even
// with a few Z-curve stragglers that jumped across the whole key range —
// exchanges only those few elements, the property the paper's merge-based
// sorting exploits (§III-B).
func mergeSplit[T any](c *vmpi.Comm, items []T, key func(T) uint64, partner int, keepLow bool, spare []T) ([]T, []T) {
	h := header{Count: int64(len(items))}
	if len(items) > 0 {
		h.Min = key(items[0])
		h.Max = key(items[len(items)-1])
	}
	// Value messages: wire-identical to one-element slices (same bytes,
	// tags, order — virtual time unchanged) with zero payload allocation.
	ph := vmpi.SendrecvVal(c, h, partner, partner, tagHeader)

	// Skip the data exchange when the pair is already ordered or one side
	// is empty.
	if h.Count == 0 || ph.Count == 0 {
		return items, spare
	}
	if keepLow && h.Max <= ph.Min {
		return items, spare
	}
	if !keepLow && ph.Max <= h.Min {
		return items, spare
	}

	n := len(items)
	// Negotiate the exchange size t = min(k_low, k_high).
	var k int
	if keepLow {
		cut := sort.Search(n, func(i int) bool { return key(items[i]) > ph.Min })
		k = n - cut // my elements above the partner's minimum
	} else {
		k = sort.Search(n, func(i int) bool { return key(items[i]) >= ph.Max })
	}
	pk := int(vmpi.SendrecvVal(c, int64(k), partner, partner, tagCount))
	t := k
	if pk < t {
		t = pk
	}
	if t == 0 {
		return items, spare
	}

	if keepLow {
		// Send my t largest; receive the partner's t smallest. Only these
		// candidates can change sides.
		theirLow := vmpi.Sendrecv(c, items[n-t:], partner, partner, tagData)
		c.Compute(costs.RedistElem * float64(2*t))
		// Keep the n smallest of (mine ∪ their candidates); ties keep the
		// lower comparator input (me) first.
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
		c.Compute(costs.MergeTime(len(out), 2))
		vmpi.Release(theirLow)
		return out, items
	}
	// Upper side: send my t smallest; receive the partner's t largest.
	theirHigh := vmpi.Sendrecv(c, items[:t], partner, partner, tagData)
	c.Compute(costs.RedistElem * float64(2*t))
	// Keep the n largest of (their candidates ∪ mine); the merged order
	// puts the lower input (partner) first on ties, and we take the last n.
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
	c.Compute(costs.MergeTime(len(merged), 2))
	vmpi.Release(theirHigh)
	copy(items, merged[total-n:])
	return items, merged[:0]
}

// chainEntry caches one network size's cleanup-chain derivation: the
// counts vector it was derived from, the chain of non-empty ranks, and the
// total element count.
type chainEntry struct {
	// counts is the vector the chain was derived from — the caller's own
	// slice, pinned here, so a later lookup with the same backing array is a
	// hit without reading it.
	counts []int64
	chain  []int
	total  int64
}

var (
	chainMu  sync.Mutex
	chainByP = map[int]*chainEntry{}
)

// sharedChain returns the chain of non-empty ranks for a counts vector,
// the calling rank's position in it (-1 when the rank is empty), and the
// total element count. The chain is a pure function of counts, and every
// rank of a P-rank sort holds the identical counts vector (it came out of
// an allgather), so one cached chain per network size serves all P ranks —
// and, for steady workloads, all subsequent sorts — instead of P fresh
// derivations per sort. The returned chain is shared and must be treated
// as read-only.
//
// The cache keeps counts itself, so the caller must neither modify nor
// release it afterwards. At paper-machine rank counts all P ranks pass the
// one shared allgather buffer: the first derives (or compares, O(P)), the
// other P-1 hit on array identity, O(1) under the lock.
func sharedChain(p int, counts []int64, me int) (chain []int, myIdx int, total int64) {
	chainMu.Lock()
	e := chainByP[p]
	switch {
	case e != nil && len(counts) > 0 && len(e.counts) == len(counts) && &e.counts[0] == &counts[0]:
		// The very array the entry pins, immutable by contract.
	case e != nil && int64sEqual(e.counts, counts):
		e.counts = counts // pin the newest array: its siblings come next
	default:
		ch := make([]int, 0, p)
		var tot int64
		for r, n := range counts {
			if n > 0 {
				ch = append(ch, r)
			}
			tot += n
		}
		e = &chainEntry{counts: counts, chain: ch, total: tot}
		chainByP[p] = e
	}
	chainMu.Unlock()
	// The chain lists ranks in ascending order; binary-search my position.
	myIdx = sort.SearchInts(e.chain, me)
	if myIdx >= len(e.chain) || e.chain[myIdx] != me {
		myIdx = -1
	}
	return e.chain, myIdx, e.total
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
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

// CE is one comparator of a sorting network: compare-exchange between
// network inputs I < J.
type CE struct{ I, J int }

// MergeExchangeSchedule returns the comparator sequence of Batcher's
// merge-exchange sorting network for n inputs (Knuth, TAOCP vol. 3,
// Algorithm 5.2.2M). Comparators are emitted in pass order; comparators
// within one (p,q,r,d) group touch disjoint input pairs and may proceed
// concurrently.
func MergeExchangeSchedule(n int) []CE {
	var out []CE
	if n < 2 {
		return out
	}
	t := 0
	for 1<<t < n {
		t++
	}
	for p := 1 << (t - 1); p > 0; p >>= 1 {
		q := 1 << (t - 1)
		r := 0
		d := p
		for {
			for i := 0; i < n-d; i++ {
				if i&p == r {
					out = append(out, CE{I: i, J: i + d})
				}
			}
			if q == p {
				break
			}
			d = q - p
			q >>= 1
			r = p
		}
	}
	return out
}

func totalLen[T any](blocks [][]T) int {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	return n
}
