package vmpi

// Collective operations, implemented on top of point-to-point messages with
// standard algorithms (dissemination barrier, binomial trees, ring
// allgather, pairwise all-to-all). Because they decompose into ordinary
// messages, their virtual cost emerges from the network topology model.
//
// All collectives must be called by every rank of the communicator in the
// same program order (SPMD discipline), as with MPI.

import "repro/internal/obs"

// Reserved internal tags. User point-to-point tags must be non-negative.
const (
	tagBarrier = -1
	tagBcast   = -2
	tagReduce  = -3
	tagGather  = -4
	tagGatherA = -5
	tagA2A     = -6
	tagScan    = -7
	tagScatter = -8
)

// Number constrains element types usable with the arithmetic reduction
// helpers.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Sum is an element-wise addition reduction operator.
func Sum[T Number](a, b T) T { return a + b }

// Max is an element-wise maximum reduction operator.
func Max[T Number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Min is an element-wise minimum reduction operator.
func Min[T Number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// collSpan brackets a base collective with a span event when the rank's
// events are listened to: call at entry, invoke the returned function
// (typically deferred) at exit. The span [entry, exit] on each rank
// includes the rank's wait time inside the operation.
func collSpan(c *Comm, kind obs.Kind, name string) func() {
	if !c.st.rec.Listening() {
		return func() {}
	}
	t0 := c.st.clock
	return func() {
		c.st.rec.Record(obs.Event{Kind: kind, Name: name, T: t0, T2: c.st.clock})
	}
}

// Barrier blocks until all ranks of the communicator have entered it, using
// the dissemination algorithm (log2(p) rounds of point-to-point messages).
func Barrier(c *Comm) {
	defer collSpan(c, obs.KindBarrier, "barrier")()
	p := c.Size()
	for k := 1; k < p; k <<= 1 {
		Send(c, []byte{}, (c.rank+k)%p, tagBarrier)
		Recv[byte](c, (c.rank-k+p)%p, tagBarrier)
	}
}

// Bcast distributes root's data to all ranks down a binomial tree and
// returns the broadcast payload: root gets data back unchanged, every other
// rank a received slice.
//
// The result is a shared, read-only view (see the ownership protocol in
// pool.go). A payload above the inline limit is copied once, on root, into
// one immutable buffer, and every hop of the tree forwards a reference to
// that buffer — P ranks, one payload — so receivers must not store into,
// append onto or relinquish (SendOwned/AlltoallOwned) what Bcast returns;
// Release of it is legal and does nothing. Root's own data is never
// aliased by another rank: root may mutate or release it as soon as Bcast
// returns. Message sizes, order and virtual cost are those of P-1
// copying sends.
func Bcast[T any](c *Comm, data []T, root int) []T {
	return bcast(c, data, root, false)
}

// bcast is the binomial-tree fan-out behind every broadcasting collective.
// owned marks root's data as a buffer root relinquishes to the broadcast —
// freshly built, shared-shaped (sharedCap) and never written again — so it
// becomes the shared buffer itself instead of being copied into one.
func bcast[T any](c *Comm, data []T, root int, owned bool) []T {
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
	// Every rank sees the same length, so every hop takes the same path:
	// inline-sized payloads are copied from envelope to envelope as any
	// small message is; larger ones travel as one shared buffer.
	bytes := len(data) * sizeOf[T]()
	shared := bytes > inlineMaxBytes || !inlineable[T]()
	wire := data
	if shared && rel == 0 {
		if !owned {
			wire = copyShared(data)
		}
		debugShare(c.rt, wire)
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			if shared {
				debugForward(wire)
				sendRaw(c, wire, bytes, dst, tagBcast)
			} else {
				Send(c, wire, dst, tagBcast)
			}
		}
		mask >>= 1
	}
	if shared && rel == 0 && !owned {
		debugUnshare(wire) // root keeps data, not the copy it fanned out
	}
	return data
}

// Reduce combines equal-length slices element-wise with op (which must be
// commutative and associative) down a binomial tree; the combined slice is
// returned on root, nil elsewhere.
func Reduce[T any](c *Comm, data []T, op func(a, b T) T, root int) []T {
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

// Allreduce combines equal-length slices element-wise with op and returns
// the combined slice on every rank (reduce to rank 0 + broadcast). The
// result is Bcast's: a shared, read-only view.
func Allreduce[T any](c *Comm, data []T, op func(a, b T) T) []T {
	res := Reduce(c, data, op, 0)
	if c.rank != 0 {
		res = nil
	}
	if c.rank == 0 && res == nil {
		res = []T{}
	}
	return Bcast(c, res, 0)
}

// AllreduceVal reduces a single value with op across all ranks.
func AllreduceVal[T any](c *Comm, v T, op func(a, b T) T) T {
	res := Allreduce(c, []T{v}, op)
	out := res[0]
	Release(res)
	return out
}

// GatherBlocks collects each rank's (variable-length) slice on root. Root
// receives a slice of blocks indexed by source rank; other ranks get nil.
func GatherBlocks[T any](c *Comm, data []T, root int) [][]T {
	defer collSpan(c, obs.KindCollective, "gather")()
	p := c.Size()
	if c.rank != root {
		Send(c, data, root, tagGather)
		return nil
	}
	blocks := make([][]T, p)
	for r := 0; r < p; r++ {
		if r == root {
			blocks[r] = copySlice(data)
		} else {
			blocks[r] = Recv[T](c, r, tagGather)
		}
	}
	return blocks
}

// Gather collects each rank's slice on root, concatenated in rank order.
func Gather[T any](c *Comm, data []T, root int) []T {
	blocks := GatherBlocks(c, data, root)
	if blocks == nil {
		return nil
	}
	return concat(blocks)
}

// ScatterBlocks distributes blocks[r] from root to each rank r and returns
// the local block. Only root's blocks argument is consulted.
func ScatterBlocks[T any](c *Comm, blocks [][]T, root int) []T {
	defer collSpan(c, obs.KindCollective, "scatter")()
	p := c.Size()
	if c.rank == root {
		if len(blocks) != p {
			panic("vmpi: ScatterBlocks needs one block per rank")
		}
		var mine []T
		for r := 0; r < p; r++ {
			if r == root {
				mine = copySlice(blocks[r])
			} else {
				Send(c, blocks[r], r, tagScatter)
			}
		}
		return mine
	}
	return Recv[T](c, root, tagScatter)
}

// allgatherRingMax is the largest communicator for which AllgatherBlocks
// uses the ring algorithm. The ring costs p-1 steps per rank — O(p²)
// messages in total — which is fine at the paper-figure scales but
// dominates everything at paper-machine rank counts, so larger
// communicators switch to a gather+broadcast tree (O(p) messages), as real
// MPI implementations switch collective algorithms by communicator size.
// The threshold keeps every ≤32-rank configuration — including all golden
// configs — on the ring, byte-identical to before.
const allgatherRingMax = 32

// AllgatherBlocks collects every rank's (variable-length) slice on every
// rank. The result is indexed by source rank. Small communicators use the
// ring algorithm (p-1 neighbor exchange steps); large ones gather to rank
// 0 and broadcast the lengths and the concatenation down the binomial
// tree.
func AllgatherBlocks[T any](c *Comm, data []T) [][]T {
	defer collSpan(c, obs.KindCollective, "allgather")()
	if c.Size() <= allgatherRingMax {
		return allgatherRing(c, data)
	}
	return allgatherTree(c, data)
}

// allgatherRing is the small-communicator algorithm: p-1 steps in which
// every rank forwards the newest block to its right neighbor.
func allgatherRing[T any](c *Comm, data []T) [][]T {
	p := c.Size()
	blocks := make([][]T, p)
	blocks[c.rank] = copySlice(data)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	cur := c.rank
	for step := 1; step < p; step++ {
		Send(c, blocks[cur], right, tagGatherA)
		cur = (cur - 1 + p) % p // after this step we hold left neighbor's block chain
		blocks[cur] = Recv[T](c, left, tagGatherA)
	}
	return blocks
}

// gatherShared is the gather half of the large-communicator allgathers:
// every rank sends its block to rank 0, which receives them in rank order
// straight into the two buffers the broadcast half then shares — the
// per-rank lengths and the concatenation. Root builds both itself and never
// writes them again, so they go out as owned broadcast buffers; other ranks
// get nil.
func gatherShared[T any](c *Comm, data []T) (lens []int64, flat []T) {
	p := c.Size()
	if c.rank != 0 {
		Send(c, data, 0, tagGatherA)
		return nil, nil
	}
	debugUse(data)
	lens = make([]int64, p, sharedCap(p))
	// Sized for equal blocks, the common case; append grows it otherwise.
	flat = make([]T, 0, sharedCap(p*len(data)))
	flat = append(flat, data...)
	lens[0] = int64(len(data))
	for r := 1; r < p; r++ {
		n := len(flat)
		flat = recvAppend(c, flat, r, tagGatherA)
		lens[r] = int64(len(flat) - n)
	}
	return lens, sharedShape(flat)
}

// allgatherTree is the large-communicator algorithm: gather every block to
// rank 0, then broadcast the lengths and the concatenation down the
// binomial tree.
func allgatherTree[T any](c *Comm, data []T) [][]T {
	lens, flat := gatherShared(c, data)
	lens = bcast(c, lens, 0, true)
	flat = bcast(c, flat, 0, true)
	out := make([][]T, c.Size())
	off := 0
	for r := range out {
		n := int(lens[r])
		// Copy each segment into its own buffer: result blocks are private
		// and independently releasable, never subslices of the shared
		// broadcast array.
		out[r] = copySlice(flat[off : off+n])
		off += n
	}
	Release(flat)
	Release(lens)
	return out
}

// allgatherFlat is the large-communicator Allgather: the same gather +
// broadcast messages as allgatherTree — virtual cost and golden figures
// are identical — but the broadcast concatenation IS the result, one
// buffer shared by all P ranks, so neither the per-segment copies of the
// block form nor a private concatenation per rank are ever materialized.
// The lens broadcast stays on the wire for message-structure identity even
// though the flat result does not use it.
func allgatherFlat[T any](c *Comm, data []T) []T {
	defer collSpan(c, obs.KindCollective, "allgather")()
	lens, flat := gatherShared(c, data)
	Release(bcast(c, lens, 0, true))
	return bcast(c, flat, 0, true)
}

// Allgather collects every rank's slice on every rank, concatenated in rank
// order. Above the ring limit the result is the broadcast buffer itself: a
// shared, read-only view (see Bcast) whose Release is legal and does
// nothing. Callers treat the result as read-only at every size.
func Allgather[T any](c *Comm, data []T) []T {
	if c.Size() > allgatherRingMax {
		return allgatherFlat(c, data)
	}
	blocks := AllgatherBlocks(c, data)
	out := concat(blocks)
	ReleaseBlocks(blocks) // concat copied them; recycle the per-hop buffers
	return out
}

// Alltoall exchanges parts[dst] from every rank to every rank dst using the
// pairwise exchange algorithm (p-1 rounds). The result is indexed by source
// rank; block lengths may differ arbitrarily (MPI_Alltoallv semantics).
func Alltoall[T any](c *Comm, parts [][]T) [][]T {
	defer collSpan(c, obs.KindCollective, "alltoall")()
	p := c.Size()
	if len(parts) != p {
		panic("vmpi: Alltoall needs one part per rank")
	}
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

// AlltoallOwned is Alltoall with the SendOwned ownership contract applied
// to every part: the caller relinquishes all of parts' buffers (the self
// block is passed through to the result without a copy, the others are sent
// without a copy) and must not touch them afterwards. Parts must be
// disjoint buffers — never subslices of one shared array, since different
// receiving ranks would then alias each other's memory. Virtual cost is
// identical to Alltoall.
func AlltoallOwned[T any](c *Comm, parts [][]T) [][]T {
	defer collSpan(c, obs.KindCollective, "alltoall")()
	p := c.Size()
	if len(parts) != p {
		panic("vmpi: AlltoallOwned needs one part per rank")
	}
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

// Scan computes the inclusive prefix reduction of equal-length slices in
// rank order (linear chain).
func Scan[T any](c *Comm, data []T, op func(a, b T) T) []T {
	defer collSpan(c, obs.KindCollective, "scan")()
	acc := copySlice(data)
	if c.rank > 0 {
		prev := Recv[T](c, c.rank-1, tagScan)
		for i := range acc {
			acc[i] = op(prev[i], acc[i])
		}
	}
	if c.rank < c.Size()-1 {
		Send(c, acc, c.rank+1, tagScan)
	}
	return acc
}

// Exscan computes the exclusive prefix reduction of equal-length slices in
// rank order; rank 0 receives zero values.
func Exscan[T any](c *Comm, data []T, op func(a, b T) T) []T {
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
