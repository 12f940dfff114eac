package vmpi

// Collective operations with the standard algorithms (dissemination barrier,
// binomial trees, ring or tree allgather, pairwise or linear all-to-all), so
// their virtual cost emerges from the network topology model. Every one —
// Barrier, Allreduce(Val), Allgather(Blocks), Alltoall(Owned),
// AlltoallLinear and Exscan — meets in a rendezvous whose last arrival
// replays the algorithm's messages' clocks (rendezvous.go).
//
// All collectives must be called by every rank of the communicator in the
// same program order (SPMD discipline), as with MPI.

import (
	"unsafe"

	"repro/internal/obs"
)

// Reserved internal tags. User point-to-point tags must be non-negative.
const (
	tagBarrier = -1
	tagBcast   = -2
	tagReduce  = -3
	tagGatherA = -5
	tagA2A     = -6
	tagScan    = -7
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

// Barrier blocks until all ranks of the communicator have entered it,
// charged as the dissemination algorithm: log2(p) rounds in which rank r
// sends an empty message to rank r+k and receives one from rank r-k.
func Barrier(c *Comm) {
	c.collective(collOp{name: "Barrier"}, nil, func(g *rendezvous) {
		p := len(g.slots)
		for k := 1; k < p; k <<= 1 {
			g.round(p, tagBarrier, func(i int) (int, int, int) { return i, (i + k) % p, 0 })
		}
		g.span(obs.KindBarrier, "barrier", false)
	})
}

// Allreduce combines equal-length slices element-wise with op and returns
// the combined slice on every rank, charged as a binomial reduce to rank 0
// followed by a binomial broadcast from it. op (the same on every rank)
// folds in the tree's own pairing — each receiving rank combines its
// accumulator with a child subtree's, nearest child first — so a
// non-associative op such as floating-point addition rounds as the tree
// does. The result is one buffer all ranks share read-only (see the
// ownership protocol in pool.go), whose Release is legal and does nothing.
func Allreduce[T any](c *Comm, data []T, op func(a, b T) T) []T {
	stage(c, data)
	return takeShared[T](c.collective(collOp{name: "Allreduce", typ: inlineType[T](), n: len(data)}, op, replayAllreduce[T]))
}

// replayAllreduce folds the staged copies — each rank's accumulator — up the
// tree while charging it, then charges the broadcast.
func replayAllreduce[T any](g *rendezvous) {
	n, op := g.op.n, g.fn.(func(a, b T) T)
	g.tree(true, tagReduce, n*sizeOf[T](), func(parent, child int) {
		acc, part := slotData[T](&g.slots[parent]), slotData[T](&g.slots[child])
		for i := range acc {
			acc[i] = op(acc[i], part[i])
		}
	})
	g.span(obs.KindCollective, "reduce", true)
	g.tree(false, tagBcast, n*sizeOf[T](), nil)
	g.span(obs.KindCollective, "bcast", true)
	res := make([]T, n, sharedCap(n))
	copy(res, slotData[T](&g.slots[0]))
	unstage[T](g)
	share(g, res)
}

// AllreduceVal reduces a single value with op across all ranks.
func AllreduceVal[T any](c *Comm, v T, op func(a, b T) T) T {
	res := Allreduce(c, []T{v}, op)
	out := res[0]
	Release(res)
	return out
}

// allgatherRingMax is the largest communicator on which the allgathers are
// charged as the ring algorithm. The ring costs p-1 steps per rank — O(p²)
// messages in total — which is fine at the paper-figure scales but
// dominates everything at paper-machine rank counts, so larger
// communicators switch to a gather+broadcast tree (O(p) messages), as real
// MPI implementations switch collective algorithms by communicator size.
// The threshold keeps every ≤32-rank configuration — including all golden
// configs — on the ring.
const allgatherRingMax = 32

// Allgather collects every rank's slice on every rank, concatenated in rank
// order: one buffer all ranks share read-only, like Allreduce's.
func Allgather[T any](c *Comm, data []T) []T {
	return takeShared[T](allgather(c, data))
}

// AllgatherBlocks collects every rank's (variable-length) slice on every
// rank. The result is indexed by source rank; every block is the calling
// rank's own, writable and releasable.
func AllgatherBlocks[T any](c *Comm, data []T) [][]T {
	g, s := allgather(c, data)
	flat := takeShared[T](g, s)
	out := make([][]T, len(g.slots))
	for r := range out {
		out[r] = copySlice(flat[g.offs[r]:g.offs[r+1]])
	}
	Release(flat)
	return out
}

// allgather is charged, up to allgatherRingMax ranks, as the ring: p-1
// steps in which every rank forwards the newest block to its right
// neighbour. Above, it is a gather to rank 0 followed by binomial broadcasts
// of the block lengths and of the concatenation.
func allgather[T any](c *Comm, data []T) (*rendezvous, *rdvSlot) {
	stage(c, data)
	return c.collective(collOp{name: "Allgather", typ: inlineType[T]()}, nil, replayAllgather[T])
}

// replayAllgather charges the allgather of the staged inputs, then
// concatenates them into the one shared result.
func replayAllgather[T any](g *rendezvous) {
	size := sizeOf[T]()
	g.offs = append(g.offs[:0], 0)
	for r := range g.slots {
		g.offs = append(g.offs, g.offs[r]+g.slots[r].n)
	}
	g.allgather(func(r int) int { return g.slots[r].n * size })
	total := g.offs[len(g.slots)]
	flat := make([]T, total, sharedCap(total))
	for r := range g.slots {
		copy(flat[g.offs[r]:], slotData[T](&g.slots[r]))
	}
	unstage[T](g)
	share(g, flat)
}

// allgather charges an allgather in which rank r contributes bytes(r): the
// ring, or the gather and both broadcasts. Its spans start where it starts.
func (g *rendezvous) allgather(bytes func(r int) int) {
	p, total := len(g.slots), 0
	for r := range g.slots {
		total += bytes(r)
	}
	g.begin(false)
	if p <= allgatherRingMax {
		for step := 1; step < p; step++ {
			g.round(p, tagGatherA, func(i int) (int, int, int) { return i, (i + 1) % p, bytes((i - step + 1 + p) % p) })
		}
	} else {
		g.round(p-1, tagGatherA, func(i int) (int, int, int) { return i + 1, 0, bytes(i + 1) })
		for _, b := range [2]int{p * sizeOf[int64](), total} {
			g.tree(false, tagBcast, b, nil)
			g.span(obs.KindCollective, "bcast", true)
		}
	}
	g.span(obs.KindCollective, "allgather", false)
}

// Alltoall exchanges parts[dst] from every rank to every rank dst, charged
// as the pairwise exchange algorithm: p-1 steps, in step s rank r sends to
// rank r+s and receives from rank r-s. The result is indexed by source rank;
// block lengths may differ arbitrarily (MPI_Alltoallv semantics). The parts
// are copied; the caller keeps them.
func Alltoall[T any](c *Comm, parts [][]T) [][]T {
	return alltoall(c, parts, false, collOp{name: "Alltoall", typ: inlineType[T]()}, replayAlltoall[T])
}

// AlltoallOwned is Alltoall with the SendOwned ownership contract applied
// to every part: the caller relinquishes all of parts' buffers (the self
// block is passed through to the result without a copy, the others are
// handed to their receivers without a copy) and must not touch them
// afterwards. Parts must be disjoint buffers — never subslices of one
// shared array, since different receiving ranks would then alias each
// other's memory. Virtual cost is identical to Alltoall.
func AlltoallOwned[T any](c *Comm, parts [][]T) [][]T {
	return alltoall(c, parts, true, collOp{name: "Alltoall", typ: inlineType[T]()}, replayAlltoall[T])
}

// AlltoallLinear is AlltoallOwned charged as the basic linear algorithm on
// tag, which every rank must pass alike: each rank sends parts[d] to every
// other d in rank order, empty parts included, then receives from every
// other rank in rank order. Only the messages are recorded, no span.
func AlltoallLinear[T any](c *Comm, parts [][]T, tag int) [][]T {
	return alltoall(c, parts, true, collOp{name: "AlltoallLinear", typ: inlineType[T](), n: tag}, replayAlltoallLinear[T])
}

// alltoall meets with the rank's outgoing blocks in its own result slice —
// copies of the parts, or the owned parts themselves — which the replay
// transposes, across all ranks, into the incoming ones.
func alltoall[T any](c *Comm, parts [][]T, owned bool, op collOp, replay func(*rendezvous)) [][]T {
	p := c.Size()
	if len(parts) != p {
		panic("vmpi: Alltoall needs one part per rank")
	}
	out := make([][]T, p)
	for d, b := range parts {
		if !owned {
			b = copySlice(b)
		} else if d != c.rank {
			debugTransfer(b)
		}
		out[d] = b
	}
	s := &c.meeting().slots[c.rank]
	s.data, s.n = unsafe.Pointer(unsafe.SliceData(out)), p
	c.collective(op, nil, replay)
	s.data = nil
	for src, b := range out {
		if src != c.rank {
			debugRecv(b)
		}
	}
	return out
}

// replayAlltoall charges the pairwise steps, then transposes.
func replayAlltoall[T any](g *rendezvous) {
	p, size := len(g.slots), sizeOf[T]()
	for step := 1; step < p; step++ {
		g.round(p, tagA2A, func(i int) (int, int, int) {
			dst := (i + step) % p
			return i, dst, len(slotData[[]T](&g.slots[i])[dst]) * size
		})
	}
	g.span(obs.KindCollective, "alltoall", false)
	transpose[T](g)
}

// replayAlltoallLinear charges the linear schedule in O(P) scratch: every
// rank's sends, keeping only its entry clock in g.arrive, then the same
// sends recomputed in sender order, folding each arrival into its receiver
// in source order. Then it transposes.
func replayAlltoallLinear[T any](g *rendezvous) {
	size, tag := sizeOf[T](), g.op.n
	bytes := func(src, dst int) int { return len(slotData[[]T](&g.slots[src])[dst]) * size }
	for src := range g.slots {
		g.arrive[src] = g.slots[src].clock
		for dst := range g.slots {
			if dst != src {
				g.send(src, dst, bytes(src, dst), tag)
			}
		}
	}
	for src := range g.slots {
		clock := g.arrive[src]
		for dst := range g.slots {
			if dst != src {
				var arrive float64
				_, clock, arrive = sendClocks(g.rt.model, clock, g.nodes[src], g.nodes[dst], bytes(src, dst))
				g.recv(src, dst, bytes(src, dst), arrive)
			}
		}
	}
	transpose[T](g)
}

// transpose moves an all-to-all's data: block d of rank s's slice trades
// places with block s of rank d's.
func transpose[T any](g *rendezvous) {
	for s := range g.slots {
		from := slotData[[]T](&g.slots[s])
		for d := s + 1; d < len(g.slots); d++ {
			to := slotData[[]T](&g.slots[d])
			from[d], to[s] = to[s], from[d]
		}
	}
}

// Exscan computes the exclusive prefix reduction of equal-length slices in
// rank order; rank 0 receives zero values. It is charged as the linear
// chain: rank r receives the prefix from r-1, folds op(prefix, data) and
// sends it on to r+1. The result is the rank's own.
func Exscan[T any](c *Comm, data []T, op func(a, b T) T) []T {
	stage(c, data)
	_, s := c.collective(collOp{name: "Exscan", typ: inlineType[T](), n: len(data)}, op, replayExscan[T])
	out := slotData[T](s)
	if s.data == unsafe.Pointer(&s.inl) {
		out = append(make([]T, 0, s.n), out...)
	} else if b := classBits(s.n); b >= 0 {
		out = unsafe.Slice(unsafe.SliceData(out), 1<<b)[:s.n] // stage's pooled copy, releasable
	}
	s.data = nil
	return out
}

// replayExscan walks the chain in rank order, turning each staged input
// into its rank's result in place while charging the chain's messages.
func replayExscan[T any](g *rendezvous) {
	p, n, op := len(g.slots), g.op.n, g.fn.(func(a, b T) T)
	bytes := n * sizeOf[T]()
	acc := make([]T, n)
	var arrive float64
	for r := range g.slots {
		in := slotData[T](&g.slots[r])
		if r > 0 {
			g.recv(r-1, r, bytes, arrive)
		}
		if r == p-1 {
			copy(in, acc)
			break
		}
		for i, v := range in {
			if in[i] = acc[i]; r == 0 {
				acc[i] = v
			} else {
				acc[i] = op(acc[i], v)
			}
		}
		arrive = g.send(r, r+1, bytes, tagScan)
	}
	g.span(obs.KindCollective, "exscan", false)
}
