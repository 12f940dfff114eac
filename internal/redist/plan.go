package redist

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/costs"
	"repro/internal/vmpi"
)

// Memory-bounded redistribution planning.
//
// Every redistribution in this package — the collective all-to-all
// Exchange, the neighborhood exchange, the block remap, and the resort of
// method B — routes through a Plan and ships its data in rounds. Following
// Rink et al. (*Memory-efficient array redistribution through portable
// collective communication*, PAPERS.md), a Plan under a byte budget
// decomposes the exchange into a deterministic schedule of
// bounded-footprint rounds: destinations are packed greedily, in staging
// order, into rounds whose worst-case staged bytes (a collective maximum,
// so every rank derives the same schedule) stay within the budget, and
// each round builds and relinquishes its buffers via vmpi.SendOwned before
// the next round stages anything. Because vmpi sends are eager and never
// block, all rounds complete before any receive, and the receives then
// assemble blocks in canonical source order — so the result is
// byte-identical whatever the round structure. Without a budget the
// schedule is one round covering the whole staging order.
//
// The budget bounds what a rank *stages* for sending at any moment; the
// inbound side (the elements a rank ends up owning) is the irreducible
// output and is not charged against it. A single destination whose block
// alone exceeds the budget still gets a round of its own — the schedule
// degrades to per-destination rounds, never deadlocks.
//
// One round loop (sendRounds) carries every operation. The only fork is
// the transport of the dense unbudgeted case: its single round goes
// through the pairwise vmpi.AlltoallOwned / vmpi.Alltoall collective,
// whose send/receive interleaving — and therefore virtual time — the
// golden figures pin. Each operation chooses at one `if` on
// Plan.Bounded()/UsedNeighborhood().

// Wire tags of the eager point-to-point rounds: the unbudgeted
// neighborhood exchange on 201, budgeted rounds on 221 (the resort's
// paired position/value messages use 211/212, see resort.go).
const (
	tagNeighborhood = 201
	tagPlan         = 221
)

// MeterPeakBytes names the obs gauge (per-exchange staged peak) and
// counter (sum of staged peaks over all metered exchanges on a rank) that
// Execute emits when a budget is active or Options.Meter is set. The
// value is a pure function of the routing, so it is deterministic at any
// host parallelism — but budgetless, unmetered configs (all golden
// figures) emit no meter events at all, keeping their event streams
// unchanged.
const MeterPeakBytes = "redist/peak_bytes"

// Options configures a Plan.
type Options struct {
	// MaxBytes is the staging budget per round. 0 adopts the
	// communicator's configured vmpi MaxExchangeBytes (itself 0 =
	// unbounded by default); a negative value forces the unbounded path
	// regardless of the communicator setting.
	MaxBytes int64
	// Neighbors, when non-nil, requests the point-to-point neighborhood
	// backend over this symmetric neighbor set (see
	// ExchangeNeighborhood). Feasibility is decided collectively in
	// NewPlan; if any rank routes outside its neighborhood every rank
	// falls back to the all-to-all backend.
	Neighbors []int
	// Meter forces emission of the MeterPeakBytes gauge/counter even on
	// the unbounded path (budgeted plans always meter). Off by default so
	// budgetless runs add zero events.
	Meter bool
}

// Plan is the routing of one redistribution: which destination every
// element occurrence goes to, which backend executes it, and — when a
// budget is active — the collective round schedule that bounds staging.
// Build one with NewPlan, run it with Execute (a package function,
// because Go methods cannot be generic: Execute[T](plan, items)). A Plan
// may be executed multiple times over same-shaped inputs.
type Plan struct {
	c      *vmpi.Comm
	n      int   // local element count the routing was built for
	budget int64 // 0 = unbounded
	meter  bool

	// Destination routing in CSR form, indexed by staging-order slot
	// (position in order): counts[k] occurrences for rank order[k], their
	// source element indices at occIdx[occOff[k]:occOff[k+1]], in local
	// element order. The all-to-all backend's order is the identity, so
	// slot == rank there; the neighborhood backend's CSR spans only
	// self + neighbors, keeping a live plan O(|neighbors|), not O(P) — at
	// 16384 ranks the per-rank dense arrays dominated host memory, since
	// every rank parked mid-exchange holds its plan. Slices, not maps —
	// this package is in the determinism analyzer's hot set.
	counts []int
	occOff []int
	occIdx []int32

	useNbr bool  // neighborhood requested and collectively feasible
	order  []int // destinations in staging order (self first for useNbr)

	// maxCounts[d] = max over ranks of counts[d]; the collective input to
	// the round schedule. Present only when budget > 0.
	maxCounts []int64

	peak int64 // staged-bytes peak of the most recent Execute
}

// planPool recycles Plan structs together with their O(P) routing arrays
// (counts, occOff, occIdx, order, maxCounts). At large P the per-step
// planner arrays dominated host allocation — every neighborhood-exchange
// step built and dropped four size-P slices per rank. NewPlan fully
// re-initializes every field it uses, so recycling is invisible to the
// routing and the schedule.
var planPool = sync.Pool{New: func() any { return new(Plan) }}

// buildScratch holds NewPlan's working arrays: the flattened occurrence
// list, the counting-sort cursor and the buffer handed to targets. NewPlan
// returns it before it communicates, so the pool holds one per run slot —
// not one per rank parked in the vote — and the next rank finds it warm.
type buildScratch struct {
	cursor  []int
	occDst  []int32
	occSrc  []int32
	targets []int
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// grow returns s resliced to length n, reallocating only when the capacity
// is short. Contents are unspecified — callers overwrite or clear.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Free returns the plan and its routing arrays to the package pool. The
// plan must not be used after Free. Freeing is optional — an unfreed Plan
// is simply garbage-collected — but the convenience wrappers (Exchange,
// ExchangeNeighborhood, RemapBlocks, the resorts) free theirs once
// executed, which keeps the O(P) planner arrays off the allocator's hot
// path at large rank counts.
func (p *Plan) Free() {
	p.c = nil
	planPool.Put(p)
}

// NewPlan routes n local elements through targets and returns the plan.
// Collective when opts.Neighbors is non-nil (the feasibility vote) or a
// budget is active (the schedule maximum); otherwise it communicates
// nothing. targets is invoked exactly once per element, in order.
func NewPlan(c *vmpi.Comm, n int, targets Targets, opts Options) *Plan {
	p := c.Size()
	self := c.Rank()
	pl := planPool.Get().(*Plan)
	pl.c, pl.n, pl.budget, pl.meter = c, n, 0, opts.Meter
	pl.useNbr, pl.peak = false, 0

	// A requested neighborhood is routed in its own staging order — self
	// first, then the neighbor list (matching its assembly order) — for as
	// long as this rank stays inside it: sparse says occDst holds slots of
	// that order, not ranks.
	sparse := opts.Neighbors != nil
	if sparse {
		for _, r := range opts.Neighbors {
			if r < 0 || r >= p {
				panic(fmt.Sprintf("redist: neighbor rank %d out of range (size %d)", r, p))
			}
		}
		pl.order = append(append(pl.order[:0], self), opts.Neighbors...)
	}

	// Pass 1: flatten the target lists — one (element, destination) pair
	// per occurrence, in emission order. Neighborhood membership and slot
	// are one scan of the (short) staging order, not an O(P) lookup table.
	sc := buildPool.Get().(*buildScratch)
	occDst, occSrc, buf := sc.occDst[:0], sc.occSrc[:0], sc.targets
	for i := 0; i < n; i++ {
		buf = targets(i, buf[:0])
		for _, r := range buf {
			if r < 0 || r >= p {
				panic(fmt.Sprintf("redist: target rank %d out of range (size %d)", r, p))
			}
			d := r
			if sparse {
				if d = pl.slotOf(r); d < 0 {
					// Outside the neighborhood: the vote is already lost, so
					// this rank routes densely from here on — slots so far
					// back to ranks.
					for j, k := range occDst {
						occDst[j] = int32(pl.order[k])
					}
					sparse, d = false, r
				}
			}
			occDst = append(occDst, int32(d))
			occSrc = append(occSrc, int32(i))
		}
	}

	// Resolve the budget: explicit option, else the communicator default.
	switch {
	case opts.MaxBytes > 0:
		pl.budget = opts.MaxBytes
	case opts.MaxBytes == 0:
		pl.budget = c.MaxExchangeBytes()
	default:
		pl.budget = 0
	}

	// The all-to-all backend stages destinations in rank order.
	if !sparse {
		pl.order = grow(pl.order, p)
		for d := range pl.order {
			pl.order[d] = d
		}
	}

	// Pass 2: bucket occurrences by staging-order slot. The counting sort
	// is stable, so each destination sees its elements in local order.
	// The neighborhood order spans self + neighbors only, so the CSR of a
	// live plan is O(|neighbors|) — not O(P).
	nslots := len(pl.order)
	pl.counts = grow(pl.counts, nslots)
	clear(pl.counts)
	for _, k := range occDst {
		pl.counts[k]++
	}
	pl.occOff = grow(pl.occOff, nslots+1)
	pl.occOff[0] = 0
	for k := 0; k < nslots; k++ {
		pl.occOff[k+1] = pl.occOff[k] + pl.counts[k]
	}
	pl.occIdx = grow(pl.occIdx, len(occDst))
	cursor := grow(sc.cursor, nslots)
	copy(cursor, pl.occOff[:nslots])
	for j, k := range occDst {
		pl.occIdx[cursor[k]] = occSrc[j]
		cursor[k]++
	}
	// Everything below communicates, and a rank parked in a collective
	// keeps what it holds: hand the scratch back first.
	sc.cursor, sc.occDst, sc.occSrc, sc.targets = cursor, occDst, occSrc, buf
	buildPool.Put(sc)

	// Collective fallback decision for the neighborhood backend: every
	// rank must take the same path. A rank that was feasible on its own
	// re-buckets its sparse CSR when another rank's routing loses the vote.
	if opts.Neighbors != nil {
		pl.useNbr = vmpi.AllreduceVal(c, boolToInt(sparse), vmpi.Min[int]) == 1
		if sparse && !pl.useNbr {
			pl.densify()
		}
	}

	// The round schedule needs the cross-rank maximum of every
	// destination's count so all ranks cut rounds identically. Collective
	// — and therefore only performed when a budget is active, keeping the
	// budgetless event stream unchanged. Rank-indexed and dense, so the
	// Allreduce payload is size-P on every backend.
	if pl.budget > 0 {
		counts64 := grow(pl.maxCounts, p)
		clear(counts64)
		for k, n := range pl.counts {
			counts64[pl.order[k]] = int64(n)
		}
		mc := vmpi.Allreduce(c, counts64, vmpi.Max[int64])
		copy(counts64, mc)
		pl.maxCounts = counts64
		vmpi.Release(mc)
	}
	return pl
}

// slotOf returns the first slot of the neighborhood staging order that
// names rank r, or -1 when r lies outside it. First match: a list that
// repeats a rank or names self leaves the later slot empty.
func (p *Plan) slotOf(r int) int {
	for k, d := range p.order {
		if d == r {
			return k
		}
	}
	return -1
}

// densify turns the sparse CSR of a neighborhood plan that lost the vote
// into the all-to-all backend's rank-ordered one. The CSR is already
// grouped by destination in local element order, and first-match routing
// leaves at most one non-empty slot per rank, so each slot's run moves as a
// block to its rank's place — which is what the dense counting sort yields.
func (p *Plan) densify() {
	size := p.c.Size()
	sc := buildPool.Get().(*buildScratch)
	order := append(sc.targets[:0], p.order...)
	off := append(sc.cursor[:0], p.occOff...)
	idx := append(sc.occSrc[:0], p.occIdx...)
	p.order = grow(p.order, size)
	for d := range p.order {
		p.order[d] = d
	}
	p.counts = grow(p.counts, size)
	clear(p.counts)
	for k, d := range order {
		p.counts[d] += off[k+1] - off[k]
	}
	p.occOff = grow(p.occOff, size+1)
	p.occOff[0] = 0
	for d := 0; d < size; d++ {
		p.occOff[d+1] = p.occOff[d] + p.counts[d]
	}
	for k, d := range order {
		copy(p.occIdx[p.occOff[d]:p.occOff[d+1]], idx[off[k]:off[k+1]])
	}
	sc.targets, sc.cursor, sc.occSrc = order, off, idx
	buildPool.Put(sc)
}

// Bounded reports whether the plan ships its data in budgeted rounds.
func (p *Plan) Bounded() bool { return p.budget > 0 }

// Budget returns the resolved staging budget in bytes (0 = unbounded).
func (p *Plan) Budget() int64 { return p.budget }

// UsedNeighborhood reports whether the neighborhood backend was feasible
// and will be (or was) used; false means the all-to-all backend, either
// because no neighbor set was given or because the collective vote fell
// back.
func (p *Plan) UsedNeighborhood() bool { return p.useNbr }

// PeakBytes returns the staged-bytes peak of the most recent Execute on
// this plan (the same value the MeterPeakBytes gauge reports), or 0 if
// the plan has not executed.
func (p *Plan) PeakBytes() int64 { return p.peak }

// Rounds returns the number of staging rounds Execute will use for
// elements of the given byte size: 1 when unbounded, otherwise the length
// of the greedy schedule.
func (p *Plan) Rounds(elemBytes int) int {
	return len(scheduleRounds(p.order, p.maxCounts, elemBytes, p.budget))
}

// scheduleRounds packs consecutive positions of order into rounds whose
// collective worst-case staging (maxCounts per destination, times
// elemBytes) stays within budget. Greedy and deterministic; a destination
// whose block alone exceeds the budget gets a singleton round. Returns
// half-open [lo, hi) position ranges covering all of order; without a
// budget that is one round (and maxCounts is not consulted).
func scheduleRounds(order []int, maxCounts []int64, elemBytes int, budget int64) [][2]int {
	if budget <= 0 {
		return [][2]int{{0, len(order)}}
	}
	rounds := make([][2]int, 0, 1)
	lo := 0
	acc := int64(0)
	for k := range order {
		b := maxCounts[order[k]] * int64(elemBytes)
		if k > lo && acc+b > budget {
			rounds = append(rounds, [2]int{lo, k})
			lo, acc = k, 0
		}
		acc += b
	}
	return append(rounds, [2]int{lo, len(order)})
}

// sendRounds is the package's one round loop: it walks the round schedule
// over order and calls stage(k) for every staging-order slot k. stage
// builds slot k's buffer(s) and relinquishes them — one eager send per
// buffer; the rank's own block is kept aside, or not built at all — and
// returns how many elements the slot counts as staged. Sends never block, so
// the rounds always complete before the caller posts its first receive.
// The result is the staged-bytes peak: the largest single round.
func sendRounds(order []int, maxCounts []int64, elemBytes int, budget int64, stage func(k int) int) int64 {
	peak := int64(0)
	for _, g := range scheduleRounds(order, maxCounts, elemBytes, budget) {
		staged := int64(0)
		for k := g[0]; k < g[1]; k++ {
			staged += int64(stage(k)) * int64(elemBytes)
		}
		if staged > peak {
			peak = staged
		}
	}
	return peak
}

// gather builds the freshly allocated per-destination send buffer for
// staging-order slot k (rank p.order[k]): the plan's occurrences for that
// rank, in local element order. Returns nil when the rank receives
// nothing (the messaging layer and its debug ownership checker rely on
// empty parts being nil).
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

// elemCost is the element-wise redistribution charge of staging-order slot
// k: elements crossing process boundaries pay RedistElem, the rank's own
// only a memory move.
func (p *Plan) elemCost(k int) float64 {
	if p.order[k] == p.c.Rank() {
		return costs.Move
	}
	return costs.RedistElem
}

// sendCost charges the plan's outgoing elements, accumulated in staging
// order (so the float64 sum is bit-identical on every path).
func (p *Plan) sendCost() float64 {
	cost := 0.0
	for k, n := range p.counts {
		cost += p.elemCost(k) * float64(n)
	}
	return cost
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

// meterPeak records the staged peak on the plan and, when metering is
// active, emits the gauge and counter.
func meterPeak(p *Plan, peak int64) {
	p.peak = peak
	if p.budget > 0 || p.meter {
		p.c.Gauge(MeterPeakBytes, float64(peak))
		p.c.Counter(MeterPeakBytes, float64(peak))
	}
}

// Execute runs the plan over items (which must have the length the plan
// was routed for) and returns, for each source rank in canonical order —
// rank order for the all-to-all backend, self first then neighbor order
// for the neighborhood backend — that rank's elements in their local
// order. The result is byte-identical across budgets and backends.
//
// Spelled as a package function because Go methods cannot be generic;
// read it as plan.Execute[T].
func Execute[T any](p *Plan, items []T) []T {
	if len(items) != p.n {
		panic(fmt.Sprintf("redist: plan routed %d elements, Execute got %d", p.n, len(items)))
	}
	c := p.c
	self := c.Rank()
	elem := int(unsafe.Sizeof(*new(T)))
	c.Compute(p.sendCost())

	// blocks[k] is the block from source p.order[k]. The per-destination
	// buffers are freshly built, so every transport relinquishes them into
	// the messages without a copy. On the neighborhood backend the rank's
	// own block — most of an almost-sorted input, always slot 0 — is never
	// staged: it goes from items straight into out at assembly. The
	// all-to-all transports stage it and drop items before they wait, or a
	// rank parked in its receives would hold its input beside the staged
	// copy of it.
	blocks := make([][]T, len(p.order))
	own, ownLen := -1, 0
	if p.UsedNeighborhood() {
		own, ownLen = 0, p.counts[0]
	}
	var peak int64
	if !p.Bounded() && !p.UsedNeighborhood() {
		// Dense and unbudgeted: the one round is the pairwise collective.
		for d := range blocks {
			blocks[d] = gather(p, items, d)
		}
		items = nil
		peak = int64(len(p.occIdx)) * int64(elem)
		blocks = vmpi.AlltoallOwned(c, blocks)
	} else {
		tag := tagNeighborhood
		if p.Bounded() {
			tag = tagPlan
		}
		peak = sendRounds(p.order, p.maxCounts, elem, p.budget, func(k int) int {
			if k == own {
				return ownLen // metered as staged: Figure M pins the peak
			}
			buf := gather(p, items, k)
			n := len(buf)
			if d := p.order[k]; d == self {
				blocks[k] = buf
			} else {
				vmpi.SendOwned(c, buf, d, tag)
			}
			return n
		})
		if own < 0 {
			items = nil
		}
		// Per-pair messages arrive in send order, so receiving in staging
		// order assembles the same bytes whatever the round structure.
		for k, src := range p.order {
			if src != self {
				blocks[k] = vmpi.Recv[T](c, src, tag)
			}
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

// ExchangeBlocks exchanges pre-built per-destination parts (one slice per
// rank of the communicator, subslices of shared arrays allowed): the
// plan-backed replacement for vmpi.Alltoall used by the sort strategies.
// With no budget configured on the communicator it is the copying
// collective; under a budget it runs the rounds with copying sends,
// metering staged peak bytes. The result — block from every source rank, in
// rank order — is byte-identical either way.
func ExchangeBlocks[T any](c *vmpi.Comm, parts [][]T) [][]T {
	size := c.Size()
	if len(parts) != size {
		panic(fmt.Sprintf("redist: ExchangeBlocks got %d parts on a size-%d communicator", len(parts), size))
	}
	budget := c.MaxExchangeBytes()
	if budget <= 0 {
		return vmpi.Alltoall(c, parts)
	}
	self := c.Rank()

	counts64 := make([]int64, size)
	order := make([]int, size)
	for d := range parts {
		counts64[d] = int64(len(parts[d]))
		order[d] = d
	}
	mc := vmpi.Allreduce(c, counts64, vmpi.Max[int64])
	maxCounts := append([]int64(nil), mc...)
	vmpi.Release(mc)

	recv := make([][]T, size)
	peak := sendRounds(order, maxCounts, int(unsafe.Sizeof(*new(T))), budget, func(d int) int {
		if d == self {
			// Copy, as the collective would: the caller keeps parts.
			// Non-nil even when empty, matching the pooled copy the
			// unbudgeted collective hands back.
			recv[d] = append(make([]T, 0, len(parts[d])), parts[d]...)
		} else {
			vmpi.Send(c, parts[d], d, tagPlan)
		}
		return len(parts[d])
	})
	for src := range recv {
		if src != self {
			recv[src] = vmpi.Recv[T](c, src, tagPlan)
		}
	}
	c.Gauge(MeterPeakBytes, float64(peak))
	c.Counter(MeterPeakBytes, float64(peak))
	return recv
}
