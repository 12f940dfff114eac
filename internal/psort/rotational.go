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
// sort strategy; cf. the memory-bounded redistribution planner).
//
// The final distribution is exactly SortPartition's splitter partition —
// balanced up to key multiplicities — and the arrival sequence on each
// rank is a small number of sorted runs, so the closing LocalSort pays
// the adaptive almost-sorted cost. Duplicate keys may be permuted
// differently than by the other strategies; the result is nonetheless
// deterministic.
//
// The rounds are charged as the messages they send; on the host they run
// as one vmpi.Replay (rotate). When the communicator has a memory budget
// configured, the per-round staged peak is reported on the
// redist.MeterPeakBytes gauge/counter like any planned exchange.
func SortRotational[T any](c *vmpi.Comm, items []T, key func(T) uint64) []T {
	LocalSort(c, items, key)
	if c.Size() == 1 {
		return items
	}
	st := rotState[T]{cur: items, splitters: exactSplitters(c, items, key)}
	vmpi.Replay(c, "SortRotational", &st, func(h *vmpi.Replayer, states []*rotState[T]) {
		rotate(h, states, key)
	})
	LocalSort(c, st.cur, key)
	if c.MaxExchangeBytes() > 0 {
		c.Gauge(redist.MeterPeakBytes, float64(st.peak))
		c.Counter(redist.MeterPeakBytes, float64(st.peak))
	}
	return st.cur
}

// rotState is one rank's side of the rotations: its elements, the
// splitters, the buffer its movers are packed into and its peak staged
// bytes.
type rotState[T any] struct {
	cur, send []T
	splitters []uint64
	peak      int64
}

// rotate replays every round over every rank's state. In the round of
// distance dist each rank packs its movers (rotation) and sends them to
// rank+dist, then receives rank-dist's, then pays for keeping its other
// elements and moving both batches, and appends what it received.
func rotate[T any](h *vmpi.Replayer, states []*rotState[T], key func(T) uint64) {
	p, elem := len(states), int(unsafe.Sizeof(*new(T)))
	arrive := make([]float64, p)
	for dist := 1; dist < p; dist <<= 1 {
		for r, s := range states {
			s.cur, s.send = rotation(s.cur, s.send[:0], key, s.splitters, r, dist)
			arrive[r] = h.Send(r, (r+dist)%p, len(s.send)*elem, tagRot)
			s.peak = max(s.peak, int64(len(s.send)*elem))
		}
		for r, s := range states {
			src := (r - dist + p) % p
			got := states[src].send
			h.Recv(src, r, len(got)*elem, arrive[src])
			h.Compute(r, costs.Move*float64(len(s.cur))+costs.RedistElem*float64(len(s.send)+len(got)))
			s.cur = append(s.cur, got...)
		}
	}
}

// rotation splits rank self's cur into the elements whose remaining ring
// offset (over len(splitters)+1 ranks) has bit dist set, appended to send,
// and the rest, compacted in place behind the scan; both keep their
// relative order.
func rotation[T any](cur, send []T, key func(T) uint64, splitters []uint64, self, dist int) (keep, moved []T) {
	p := len(splitters) + 1
	keep = cur[:0]
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
	return keep, send
}

// destRank returns the destination rank of a key under the splitter
// partition: the first rank r with key < splitters[r], else the last
// rank. This is the per-element form of SortPartition's contiguous
// partition rule, so both strategies produce the same distribution.
func destRank(key uint64, splitters []uint64) int {
	return sort.Search(len(splitters), func(r int) bool { return key < splitters[r] })
}
