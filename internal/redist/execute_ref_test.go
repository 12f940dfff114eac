package redist

import (
	"unsafe"

	"repro/internal/vmpi"
)

// The dense exchange as collectives and messages, kept as the reference for
// exchange (FuzzPlanMatchesOracle, TestExchangeBlocksMatchesAlltoall): every
// destination's block is staged in its own buffer and handed over — to the
// pairwise vmpi.AlltoallOwned or vmpi.Alltoall without a budget, as the
// linear all-to-all's messages under one — and the received blocks are
// assembled in source order. The replayed exchange must charge the same
// clocks, counters and events and return the same bytes.

// refExecuteDense is Execute on a dense plan, staging every block.
func refExecuteDense[T any](p *Plan, items []T) []T {
	c := p.c
	c.Compute(p.sendCost())
	blocks := make([][]T, len(p.order))
	peak := sendRounds(len(blocks), p.maxCounts, int(unsafe.Sizeof(*new(T))), p.budget, func(k int) int {
		blocks[k] = gather(p, items, k)
		return len(blocks[k])
	})
	if p.Bounded() {
		blocks = refAlltoallLinear(c, blocks, tagPlan)
	} else {
		blocks = vmpi.AlltoallOwned(c, blocks)
	}
	out := make([]T, 0, totalLen(blocks))
	for _, b := range blocks {
		out = append(out, b...)
	}
	c.Compute(recvCost(p, blocks, -1))
	vmpi.ReleaseBlocks(blocks)
	meterPeak(p, peak)
	return out
}

// refExchangeBlocks is ExchangeBlocks returning one block per source rank:
// the copying vmpi.Alltoall without a budget, copies of the parts sent as
// the linear all-to-all under one.
func refExchangeBlocks[T any](c *vmpi.Comm, parts [][]T) [][]T {
	budget := c.MaxExchangeBytes()
	if budget <= 0 {
		return vmpi.Alltoall(c, parts)
	}
	maxCounts := make([]int64, len(parts))
	for d := range parts {
		maxCounts[d] = int64(len(parts[d]))
	}
	mc := vmpi.Allreduce(c, maxCounts, vmpi.Max[int64])
	copy(maxCounts, mc)
	vmpi.Release(mc)
	staged := make([][]T, len(parts))
	peak := sendRounds(len(parts), maxCounts, int(unsafe.Sizeof(*new(T))), budget, func(d int) int {
		staged[d] = append(make([]T, 0, len(parts[d])), parts[d]...)
		return len(parts[d])
	})
	recv := refAlltoallLinear(c, staged, tagPlan)
	c.Gauge(MeterPeakBytes, float64(peak))
	c.Counter(MeterPeakBytes, float64(peak))
	return recv
}

// refAlltoallLinear is the basic linear all-to-all message by message: the
// rank relinquishes parts[d] to every other rank d in rank order on tag,
// empty parts included, then receives from every other rank in rank order.
func refAlltoallLinear[T any](c *vmpi.Comm, parts [][]T, tag int) [][]T {
	self := c.Rank()
	recv := make([][]T, len(parts))
	recv[self] = parts[self]
	for d, b := range parts {
		if d != self {
			vmpi.SendOwned(c, b, d, tag)
		}
	}
	for src := range parts {
		if src != self {
			recv[src] = vmpi.Recv[T](c, src, tag)
		}
	}
	return recv
}
