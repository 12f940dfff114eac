package vmpi

import "repro/internal/obs"

// The message-level bodies of the collectives: the algorithms the
// rendezvous replays (rendezvous.go), kept as the reference it is checked
// against (FuzzCollectivesMatchMessageLevel, allgather_boundary_test.go).
// Each sends, on the same tags, exactly the messages the replay charges, and
// records the same spans. refBcast and refReduce, at the end, are the
// binomial trees they are built from; Resize's release replays refBcast of
// an empty payload from rank 0.

// collSpan brackets a message-level collective with a span event when the
// run is traced: call at entry, invoke the returned function
// (typically deferred) at exit. The span [entry, exit] on each rank includes
// the rank's wait time inside the operation.
func collSpan(c *Comm, kind obs.Kind, name string) func() {
	if !c.rt.trace {
		return func() {}
	}
	t0 := c.st.clock
	return func() {
		c.st.rec.Record(obs.Event{Kind: kind, Name: name, T: t0, T2: c.st.clock})
	}
}

func refBarrier(c *Comm) {
	defer collSpan(c, obs.KindBarrier, "barrier")()
	p := c.Size()
	for k := 1; k < p; k <<= 1 {
		Send(c, []byte{}, (c.rank+k)%p, tagBarrier)
		Recv[byte](c, (c.rank-k+p)%p, tagBarrier)
	}
}

// refAllreduce is a refReduce to rank 0 followed by a refBcast from it.
func refAllreduce[T any](c *Comm, data []T, op func(a, b T) T) []T {
	return refBcast(c, refReduce(c, data, op, 0), 0)
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
	lens = refBcast(c, lens, 0)
	flat = refBcast(c, flat, 0)
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
	refBcast(c, lens, 0)
	return refBcast(c, flat, 0)
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

// AlltoallLinear is AlltoallOwned charged as the basic linear algorithm on
// tag, which every rank must pass alike: each rank sends parts[d] to every
// other d in rank order, empty parts included, then receives from every
// other rank in rank order. Only the messages are recorded, no span. It is
// the reference for Replayer.AlltoallLinear, the charge a budgeted dense
// exchange makes inside its own Replay, and is checked in turn against
// refAlltoallLinear.
func AlltoallLinear[T any](c *Comm, parts [][]T, tag int) [][]T {
	return alltoall(c, parts, true, collOp{name: "AlltoallLinear", typ: typeID[T](), n: tag}, replayAlltoallLinear[T])
}

// replayAlltoallLinear charges the linear schedule, then transposes.
func replayAlltoallLinear[T any](g *rendezvous) {
	ranks := identity(len(g.slots))
	bytes := alltoallBytes[T](g)
	(&Replayer{g: g}).AlltoallLinear(func(int) []int { return ranks }, []int{g.op.n}, func(r, k, _ int) int { return bytes(r, k) })
	transpose[T](g)
}

// refExscan is the linear chain: rank r receives the prefix from r-1 and
// sends op(prefix, data) on to r+1; rank 0 sends its data and gets zeros.
func refExscan[T any](c *Comm, data []T, op func(a, b T) T) []T {
	defer collSpan(c, obs.KindCollective, "exscan")()
	var prev []T
	if c.rank > 0 {
		prev = Recv[T](c, c.rank-1, tagScan)
	} else {
		prev = make([]T, len(data))
	}
	if c.rank < c.Size()-1 {
		next := make([]T, len(data))
		for i := range next {
			next[i] = op(prev[i], data[i])
		}
		if c.rank == 0 {
			copy(next, data)
		}
		Send(c, next, c.rank+1, tagScan)
	}
	return prev
}

// refBcast distributes root's data to all ranks down a binomial tree and
// returns the broadcast payload: root gets data back unchanged, every other
// rank a received slice.
//
// The result is a shared, read-only view (see the ownership protocol in
// pool.go). The payload is copied once, on root, into one immutable
// buffer, and every hop of the tree forwards a reference to
// that buffer — P ranks, one payload — so receivers must not store into,
// append onto or relinquish (SendOwned/AlltoallOwned) what refBcast returns;
// Release of it is legal and does nothing. Root's own data is never
// aliased by another rank: root may mutate or release it as soon as refBcast
// returns. Message sizes, order and virtual cost are those of P-1
// copying sends.
func refBcast[T any](c *Comm, data []T, root int) []T {
	defer collSpan(c, obs.KindCollective, "bcast")()
	p := c.Size()
	if p == 1 {
		return data
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			data = Recv[T](c, src, tagBcast)
			break
		}
		mask <<= 1
	}
	bytes := len(data) * sizeOf[T]()
	wire := data
	if rel == 0 {
		wire = copyShared(data)
		debugShare(c.rt, wire)
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			debugForward(wire)
			sendRaw(c, wire, bytes, (rel+mask+root)%p, tagBcast)
		}
		mask >>= 1
	}
	if rel == 0 {
		debugUnshare(wire) // root keeps data, not the copy it fanned out
	}
	return data
}

// refReduce combines equal-length slices element-wise with op (which must be
// commutative and associative) down a binomial tree; the combined slice is
// returned on root, nil elsewhere.
func refReduce[T any](c *Comm, data []T, op func(a, b T) T, root int) []T {
	defer collSpan(c, obs.KindCollective, "reduce")()
	p := c.Size()
	acc := copySlice(data)
	rel := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % p
			SendOwned(c, acc, dst, tagReduce) // acc is our private copy; relinquish it
			return nil
		}
		if src := rel | mask; src < p {
			part := Recv[T](c, (src+root)%p, tagReduce)
			if len(part) != len(acc) {
				panic("vmpi: Reduce length mismatch across ranks")
			}
			for i := range acc {
				acc[i] = op(acc[i], part[i])
			}
			Release(part)
		}
	}
	return acc
}

// copyShared deep-copies a payload into a fresh shared-shaped buffer: the
// one copy a broadcast makes, on its root.
func copyShared[T any](data []T) []T {
	debugUse(data)
	out := make([]T, len(data), sharedCap(len(data)))
	copy(out, data)
	return out
}

// concat joins blocks into one pooled slice (releasable by whoever ends up
// owning it).
func concat[T any](blocks [][]T) []T {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	out := getSlice[T](n)
	off := 0
	for _, b := range blocks {
		off += copy(out[off:], b)
	}
	return out
}
