package vmpi

import "repro/internal/obs"

// The message-level bodies of the seven synchronizing collectives: the
// algorithms the rendezvous replays (rendezvous.go), kept as the reference
// it is checked against (FuzzCollectivesMatchMessageLevel,
// allgather_boundary_test.go). Each sends, on the same tags, exactly the
// messages the replay charges, and records the same spans.

func refBarrier(c *Comm) {
	defer collSpan(c, obs.KindBarrier, "barrier")()
	p := c.Size()
	for k := 1; k < p; k <<= 1 {
		Send(c, []byte{}, (c.rank+k)%p, tagBarrier)
		Recv[byte](c, (c.rank-k+p)%p, tagBarrier)
	}
}

// refAllreduce is a Reduce to rank 0 followed by a Bcast from it.
func refAllreduce[T any](c *Comm, data []T, op func(a, b T) T) []T {
	return Bcast(c, Reduce(c, data, op, 0), 0)
}

func refAllgatherBlocks[T any](c *Comm, data []T) [][]T {
	defer collSpan(c, obs.KindCollective, "allgather")()
	if c.Size() <= allgatherRingMax {
		return refAllgatherRing(c, data)
	}
	return refAllgatherTree(c, data)
}

func refAllgather[T any](c *Comm, data []T) []T {
	if c.Size() > allgatherRingMax {
		return refAllgatherFlat(c, data)
	}
	blocks := refAllgatherBlocks(c, data)
	out := concat(blocks)
	ReleaseBlocks(blocks)
	return out
}

// refAllgatherRing is the small-communicator algorithm: p-1 steps in which
// every rank forwards the newest block to its right neighbour.
func refAllgatherRing[T any](c *Comm, data []T) [][]T {
	p := c.Size()
	blocks := make([][]T, p)
	blocks[c.rank] = copySlice(data)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	cur := c.rank
	for step := 1; step < p; step++ {
		Send(c, blocks[cur], right, tagGatherA)
		cur = (cur - 1 + p) % p // after this step we hold left neighbour's block chain
		blocks[cur] = Recv[T](c, left, tagGatherA)
	}
	return blocks
}

// refGather is the gather half of the large-communicator algorithm: every
// rank sends its block to rank 0, which receives them in rank order into
// the per-rank lengths and the concatenation; other ranks get nil.
func refGather[T any](c *Comm, data []T) (lens []int64, flat []T) {
	if c.rank != 0 {
		Send(c, data, 0, tagGatherA)
		return nil, nil
	}
	lens = []int64{int64(len(data))}
	flat = append(flat, data...)
	for r := 1; r < c.Size(); r++ {
		b := Recv[T](c, r, tagGatherA)
		lens = append(lens, int64(len(b)))
		flat = append(flat, b...)
		Release(b)
	}
	return lens, flat
}

// refAllgatherTree is the large-communicator algorithm: gather every block
// to rank 0, then broadcast the lengths and the concatenation.
func refAllgatherTree[T any](c *Comm, data []T) [][]T {
	lens, flat := refGather(c, data)
	lens = Bcast(c, lens, 0)
	flat = Bcast(c, flat, 0)
	out := make([][]T, c.Size())
	off := 0
	for r := range out {
		n := int(lens[r])
		out[r] = copySlice(flat[off : off+n])
		off += n
	}
	return out
}

// refAllgatherFlat is the large-communicator Allgather: refAllgatherTree's
// messages, the broadcast concatenation being the result.
func refAllgatherFlat[T any](c *Comm, data []T) []T {
	defer collSpan(c, obs.KindCollective, "allgather")()
	lens, flat := refGather(c, data)
	Bcast(c, lens, 0)
	return Bcast(c, flat, 0)
}

func refAlltoall[T any](c *Comm, parts [][]T) [][]T {
	defer collSpan(c, obs.KindCollective, "alltoall")()
	p := c.Size()
	recv := make([][]T, p)
	recv[c.rank] = copySlice(parts[c.rank])
	for step := 1; step < p; step++ {
		dst := (c.rank + step) % p
		src := (c.rank - step + p) % p
		Send(c, parts[dst], dst, tagA2A)
		recv[src] = Recv[T](c, src, tagA2A)
	}
	return recv
}

func refAlltoallOwned[T any](c *Comm, parts [][]T) [][]T {
	defer collSpan(c, obs.KindCollective, "alltoall")()
	p := c.Size()
	recv := make([][]T, p)
	recv[c.rank] = parts[c.rank]
	for step := 1; step < p; step++ {
		dst := (c.rank + step) % p
		src := (c.rank - step + p) % p
		SendOwned(c, parts[dst], dst, tagA2A)
		recv[src] = Recv[T](c, src, tagA2A)
	}
	return recv
}

// refAlltoallLinear is the basic linear all-to-all: every send in rank
// order, then every receive in rank order, with no span.
func refAlltoallLinear[T any](c *Comm, parts [][]T, tag int) [][]T {
	p := c.Size()
	recv := make([][]T, p)
	recv[c.rank] = parts[c.rank]
	for dst := 0; dst < p; dst++ {
		if dst != c.rank {
			SendOwned(c, parts[dst], dst, tag)
		}
	}
	for src := 0; src < p; src++ {
		if src != c.rank {
			recv[src] = Recv[T](c, src, tag)
		}
	}
	return recv
}
