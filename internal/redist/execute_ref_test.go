package redist

import (
	"unsafe"

	"repro/internal/costs"
	"repro/internal/vmpi"
)

// The exchanges as collectives and messages, kept as the references for
// exchange and executeResort (FuzzPlanMatchesOracle,
// TestExchangeBlocksMatchesAlltoall, TestResortMatchesReference): every
// destination's block is staged in its own buffer and handed over — to the
// pairwise vmpi.AlltoallOwned or vmpi.Alltoall without a budget, as the
// linear all-to-all's messages under one or in a neighbourhood — and the
// received blocks are assembled in source order. The replayed exchanges
// must charge the same clocks, counters and events and return the same
// bytes.

// gather builds the freshly allocated per-destination send buffer for
// staging-order slot k (rank p.order[k]): the plan's occurrences for that
// rank, in local element order. Returns nil when the rank receives nothing.
func gather[T any](p *Plan, items []T, k int) []T {
	lo, hi := p.occOff[k], p.occOff[k+1]
	if lo == hi {
		return nil
	}
	buf := make([]T, 0, hi-lo)
	for _, i := range p.occIdx[lo:hi] {
		buf = append(buf, items[i])
	}
	return buf
}

// recvCost charges received blocks, one per staging-order slot, in the
// same order. own is the slot whose block was never staged and is charged
// by its count (-1: none).
func recvCost[T any](p *Plan, blocks [][]T, own int) float64 {
	cost := 0.0
	for k, b := range blocks {
		n := len(b)
		if k == own {
			n = p.counts[k]
		}
		cost += p.elemCost(k) * float64(n)
	}
	return cost
}

func totalLen[T any](blocks [][]T) int {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	return n
}

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

// refExecuteNeighborhood is Execute on a neighbourhood plan message by
// message: one send per neighbour slot in staging order, empty ones
// included, on tag 201 (221 under a budget), then one receive per
// neighbour slot in the same order. The own block, slot 0, is never sent:
// it goes from items straight into out.
func refExecuteNeighborhood[T any](p *Plan, items []T) []T {
	c := p.c
	self := c.Rank()
	c.Compute(p.sendCost())
	blocks := make([][]T, len(p.order))
	own, ownLen := 0, p.counts[0]
	tag := tagNeighborhood
	if p.Bounded() {
		tag = tagPlan
	}
	peak := sendRounds(len(blocks), p.maxCounts, int(unsafe.Sizeof(*new(T))), p.budget, func(k int) int {
		if k == own {
			return ownLen
		}
		buf := gather(p, items, k)
		if d := p.order[k]; d == self {
			blocks[k] = buf
		} else {
			vmpi.Send(c, buf, d, tag)
		}
		return len(buf)
	})
	for k, src := range p.order {
		if src != self {
			blocks[k] = vmpi.Recv[T](c, src, tag)
		}
	}
	out := make([]T, 0, totalLen(blocks)+ownLen)
	for k, b := range blocks {
		if k == own {
			for _, i := range p.occIdx[p.occOff[k]:p.occOff[k+1]] {
				out = append(out, items[i])
			}
		}
		out = append(out, b...)
	}
	c.Compute(recvCost(p, blocks, own))
	vmpi.ReleaseBlocks(blocks)
	meterPeak(p, peak)
	return out
}

// gatherResort builds the paired position/value send buffers for
// staging-order slot k (rank p.order[k]) from the plan's routing: one
// int64 target position and stride values per occurrence, in local order.
// Both nil when the rank receives nothing.
func gatherResort[T any](p *Plan, vals []T, stride int, indices []Index, k int) ([]int64, []T) {
	lo, hi := p.occOff[k], p.occOff[k+1]
	if lo == hi {
		return nil, nil
	}
	pos := make([]int64, 0, hi-lo)
	val := make([]T, 0, (hi-lo)*stride)
	for _, i := range p.occIdx[lo:hi] {
		pos = append(pos, int64(indices[i].Pos()))
		val = append(val, vals[int(i)*stride:(int(i)+1)*stride]...)
	}
	return pos, val
}

// refExecuteResort is executeResort as two pairwise vmpi.AlltoallOwned
// without a budget and, under one, as paired position/value messages on
// tags 211/212 to every other rank in rank order, then their receives.
func refExecuteResort[T any](p *Plan, vals []T, stride int, indices []Index, nNew int) []T {
	c := p.c
	size := c.Size()
	self := c.Rank()
	c.Compute(p.sendCost() + costs.Move*float64(len(indices)*stride))
	recvPos := make([][]int64, size)
	recvVal := make([][]T, size)
	if !p.Bounded() {
		for d := 0; d < size; d++ {
			recvPos[d], recvVal[d] = gatherResort(p, vals, stride, indices, d)
		}
		recvPos = vmpi.AlltoallOwned(c, recvPos)
		recvVal = vmpi.AlltoallOwned(c, recvVal)
	} else {
		elem := 8 + stride*int(unsafe.Sizeof(*new(T)))
		peak := sendRounds(size, p.maxCounts, elem, p.budget, func(d int) int {
			pos, val := gatherResort(p, vals, stride, indices, d)
			if d == self {
				recvPos[d], recvVal[d] = pos, val
			} else {
				vmpi.Send(c, pos, d, tagResortPos)
				vmpi.Send(c, val, d, tagResortVal)
			}
			return len(pos)
		})
		for src := 0; src < size; src++ {
			if src != self {
				recvPos[src] = vmpi.Recv[int64](c, src, tagResortPos)
				recvVal[src] = vmpi.Recv[T](c, src, tagResortVal)
			}
		}
		meterPeak(p, peak)
	}
	out := make([]T, nNew*stride)
	placed := make([]bool, nNew)
	for r := 0; r < size; r++ {
		scatterResort(out, placed, recvPos[r], recvVal[r], stride, nNew)
	}
	c.Compute(recvCost(p, recvPos, -1) + costs.Move*float64(nNew*stride))
	vmpi.ReleaseBlocks(recvPos)
	vmpi.ReleaseBlocks(recvVal)
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
// rank sends parts[d] to every other rank d in rank order on tag, empty
// parts included, then receives from every other rank in rank order.
func refAlltoallLinear[T any](c *vmpi.Comm, parts [][]T, tag int) [][]T {
	self := c.Rank()
	recv := make([][]T, len(parts))
	recv[self] = parts[self]
	for d, b := range parts {
		if d != self {
			vmpi.Send(c, b, d, tag)
		}
	}
	for src := range parts {
		if src != self {
			recv[src] = vmpi.Recv[T](c, src, tag)
		}
	}
	return recv
}
