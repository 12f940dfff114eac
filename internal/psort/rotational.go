package psort

import (
	"sort"
	"unsafe"

	"repro/internal/costs"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// SortRotational globally sorts items across the ranks of c with the
// rotational nearly-sort: the same exact splitters as SortPartition
// choose every element's destination rank, but instead of one all-to-all
// that stages p send buffers simultaneously, elements travel through
// ceil(log2 p) fixed rounds of single point-to-point ring rotations.
// Round k rotates by dist = 2^k: every element whose remaining ring
// offset (destination minus current rank, mod p) has bit k set is packed
// into one outgoing buffer for rank+dist, and the binary decomposition of
// the offsets delivers every element after the last round. Peak send
// staging is therefore one buffer per round — never p — which makes the
// strategy memory-bounded by construction; it pays for that with log p
// message latencies and elements traveling multiple hops (the rotational
// fixed-size redistribution of particle-filter resamplers, applied as a
// sort strategy; cf. ROADMAP item 3).
//
// The final distribution is exactly SortPartition's splitter partition —
// balanced up to key multiplicities — and the arrival sequence on each
// rank is a small number of sorted runs, so the closing LocalSort pays
// the adaptive almost-sorted cost. Duplicate keys may be permuted
// differently than by the other strategies; the result is nonetheless
// deterministic.
//
// When the communicator has a memory budget configured, the per-round
// staged peak is reported on the redist.MeterPeakBytes gauge/counter like
// any planned exchange.
func SortRotational[T any](c *vmpi.Comm, items []T, key func(T) uint64) []T {
	p := c.Size()
	LocalSort(c, items, key)
	if p == 1 {
		return items
	}
	splitters := exactSplitters(c, items, key)
	self := c.Rank()

	cur := items
	var send []T
	peak := int64(0)
	elem := int64(unsafe.Sizeof(*new(T)))
	for dist := 1; dist < p; dist <<= 1 {
		// Split cur into the elements rotating this round and the rest,
		// preserving relative order. The keep side compacts cur in place
		// behind the scan; movers are copied out first.
		send = send[:0]
		keep := cur[:0]
		for _, e := range cur {
			off := destRank(key(e), splitters) - self
			if off < 0 {
				off += p
			}
			if off&dist != 0 {
				send = append(send, e)
			} else {
				keep = append(keep, e)
			}
		}
		got := vmpi.Sendrecv(c, send, (self+dist)%p, (self-dist+p)%p, tagRot)
		c.Compute(costs.Move*float64(len(keep)) + costs.RedistElem*float64(len(send)+len(got)))
		cur = append(keep, got...)
		vmpi.Release(got)
		if staged := int64(len(send)) * elem; staged > peak {
			peak = staged
		}
	}

	LocalSort(c, cur, key)
	if c.MaxExchangeBytes() > 0 {
		c.Gauge(redist.MeterPeakBytes, float64(peak))
		c.Counter(redist.MeterPeakBytes, float64(peak))
	}
	return cur
}

// destRank returns the destination rank of a key under the splitter
// partition: the first rank r with key < splitters[r], else the last
// rank. This is the per-element form of SortPartition's contiguous
// partition rule, so both strategies produce the same distribution.
func destRank(key uint64, splitters []uint64) int {
	return sort.Search(len(splitters), func(r int) bool { return key < splitters[r] })
}
