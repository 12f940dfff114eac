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
// each round builds and relinquishes its buffers before the next round
// stages anything. Because vmpi sends are eager and never
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
// One round loop (sendRounds) walks every schedule. Dense, Execute and
// ExchangeBlocks meet once (exchange): each rank stages its blocks in one
// buffer per group of destinations and drops its input, and one vmpi.Replay
// charges the pairwise all-to-all unbudgeted (the golden figures pin its
// virtual time) or the linear one under a budget, whose messages are the
// rounds' own — so there the rounds only meter the staged peak — and moves
// every group's buffers to its destinations, which copy their blocks out
// in parallel once they wake. The neighborhood backend and the budgeted
// resort send message by message: a neighborhood rank may leave before a
// non-neighbour enters, and the resort's interleaved position/value pair
// would need a schedule of its own.

// Wire tags: the unbudgeted neighborhood exchange sends on 201, budgeted
// rounds — and the budgeted dense exchange's linear schedule — on 221
// (the resort's paired position/value messages use 211/212, see resort.go).
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

	// maxCounts[k] = max over ranks of their count for rank order[k]; the
	// collective input to the round schedule. Present only when budget > 0.
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
		pl.maxCounts = grow(counts64, len(pl.order))
		for k, d := range pl.order {
			pl.maxCounts[k] = mc[d]
		}
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
	return len(scheduleRounds(len(p.order), p.maxCounts, elemBytes, p.budget))
}

// scheduleRounds packs the n consecutive staging-order slots into rounds
// whose collective worst-case staging (maxCounts per slot, times
// elemBytes) stays within budget. Greedy and deterministic; a destination
// whose block alone exceeds the budget gets a singleton round. Returns
// half-open [lo, hi) slot ranges covering all n; without a budget that is
// one round (and maxCounts is not consulted).
func scheduleRounds(n int, maxCounts []int64, elemBytes int, budget int64) [][2]int {
	if budget <= 0 {
		return [][2]int{{0, n}}
	}
	rounds := make([][2]int, 0, 1)
	lo := 0
	acc := int64(0)
	for k := 0; k < n; k++ {
		b := maxCounts[k] * int64(elemBytes)
		if k > lo && acc+b > budget {
			rounds = append(rounds, [2]int{lo, k})
			lo, acc = k, 0
		}
		acc += b
	}
	return append(rounds, [2]int{lo, n})
}

// sendRounds is the package's one round loop: it walks the round schedule
// over n staging-order slots and calls stage(k) for every slot k. stage
// builds slot k's buffer(s) and relinquishes them — one eager send per
// buffer, or to the collective the caller makes next; the own block is kept
// aside, or not built at all — and returns how many elements the slot counts
// as staged. Sends never block, so the rounds complete before the first
// receive. The result is the staged-bytes peak: the largest single round.
func sendRounds(n int, maxCounts []int64, elemBytes int, budget int64, stage func(k int) int) int64 {
	peak := int64(0)
	for _, g := range scheduleRounds(n, maxCounts, elemBytes, budget) {
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
// staging-order slot k (rank p.order[k]) of a neighborhood plan: the plan's
// occurrences for that rank, in local element order. Returns nil when the
// rank receives nothing (the messaging layer and its debug ownership
// checker rely on empty parts being nil).
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

// exchangeGroups is how many groups of consecutive destination ranks a
// source stages its blocks of a dense exchange in: one buffer per group, so
// P·8 allocations per exchange rather than one per block (P²), and a
// group's buffers die as soon as its destinations have copied, not when
// the last destination has.
const exchangeGroups = 8

// source is one rank's side of a dense exchange. Before the replay it holds
// bufs[g], its blocks for the destinations of group g concatenated in rank
// order, and off, with off[d+1]-off[d] the length of its block for rank d.
// The replay moves every group's buffers to the group's destinations: each
// is left holding in[s], source s's buffer for its group, and at[2s] and
// at[2s+1], its block's offset and length there.
type source[T any] struct {
	off  []int
	bufs [][]T
	in   [][]T
	at   []int32
}

// exchange is the dense all-to-all of Execute and ExchangeBlocks, op
// naming the caller. The rank stages its blocks — block(buf, d) appends
// the one for rank d to buf; off gives their lengths — into one buffer per
// group of destinations, holding nothing else of its input. One Replay
// then charges the schedule (the pairwise collective's, or the linear one
// on tagPlan when bounded) and moves the buffers to the destinations
// (moveGroups). The rank builds its output from them, in source order,
// reporting each block's length to got as it goes. No rank reads another's
// input or plan after the replay.
func exchange[T any](c *vmpi.Comm, op string, bounded bool, off []int, block func(buf []T, d int) []T, got func(src, n int)) []T {
	p := c.Size()
	src := &source[T]{off: off, bufs: make([][]T, min(exchangeGroups, p))}
	for g := range src.bufs {
		lo, hi := group(g, len(src.bufs), p)
		if off[hi] > off[lo] {
			buf := make([]T, 0, off[hi]-off[lo])
			for d := lo; d < hi; d++ {
				buf = block(buf, d)
			}
			src.bufs[g] = buf
		}
	}
	elem := int(unsafe.Sizeof(*new(T)))
	if bounded {
		op += " budgeted"
	}
	vmpi.Replay(c, op, src, func(h *vmpi.Replayer, all []*source[T]) {
		bytes := func(s, d int) int { return (all[s].off[d+1] - all[s].off[d]) * elem }
		if bounded {
			h.AlltoallLinear(bytes, tagPlan)
		} else {
			h.Alltoall(bytes)
		}
		moveGroups(all)
	})
	n := 0
	for s := range src.in {
		n += int(src.at[2*s+1])
	}
	out := make([]T, 0, n)
	for s, b := range src.in {
		at, k := int(src.at[2*s]), int(src.at[2*s+1])
		got(s, k)
		out = append(out, b[at:at+k]...)
	}
	return out
}

// group returns the ranks [lo, hi) of destination group g of ng over p.
func group(g, ng, p int) (lo, hi int) { return g * p / ng, (g + 1) * p / ng }

// moveGroups hands every group's staged buffers to the group's destinations
// with each block's place in them, and lets the sources go of them and of
// their offsets, so that a group's buffers are referenced only by its
// destinations.
func moveGroups[T any](all []*source[T]) {
	p, ng := len(all), len(all[0].bufs)
	for g := 0; g < ng; g++ {
		lo, hi := group(g, ng, p)
		in := make([][]T, p)
		at := make([]int32, 2*p*(hi-lo))
		for s, src := range all {
			in[s] = src.bufs[g]
		}
		for d := lo; d < hi; d++ {
			a := at[2*p*(d-lo) : 2*p*(d-lo+1)]
			for s, src := range all {
				a[2*s] = int32(src.off[d] - src.off[lo])
				a[2*s+1] = int32(src.off[d+1] - src.off[d])
			}
			all[d].in, all[d].at = in, a
		}
	}
	for _, src := range all {
		src.off, src.bufs = nil, nil
	}
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

	// Dense, exchange stages every block at once (slot == rank), so the
	// rounds only meter what a round would stage. The receive charge
	// accumulates in source order, as recvCost's does.
	if !p.UsedNeighborhood() {
		peak := sendRounds(len(p.order), p.maxCounts, elem, p.budget, func(k int) int { return p.counts[k] })
		cost := 0.0
		out := exchange(c, "redist.Execute", p.Bounded(), p.occOff, func(buf []T, d int) []T {
			for _, i := range p.occIdx[p.occOff[d]:p.occOff[d+1]] {
				buf = append(buf, items[i])
			}
			return buf
		}, func(k, n int) { cost += p.elemCost(k) * float64(n) })
		c.Compute(cost)
		meterPeak(p, peak)
		return out
	}

	// blocks[k] is the block from source p.order[k]. The per-destination
	// buffers are freshly built, so the sends relinquish them without a
	// copy. The rank's own block — most of an almost-sorted input, always
	// slot 0 — is never staged: it goes from items straight into out at
	// assembly.
	blocks := make([][]T, len(p.order))
	own, ownLen := 0, p.counts[0]
	tag := tagNeighborhood
	if p.Bounded() {
		tag = tagPlan
	}
	peak := sendRounds(len(blocks), p.maxCounts, elem, p.budget, func(k int) int {
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
	// Per-pair messages arrive in send order, so receiving in staging
	// order assembles the same bytes whatever the round structure.
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

// ExchangeBlocks exchanges pre-built per-destination parts (one slice per
// rank of the communicator, subslices of shared arrays allowed): the
// plan-backed block exchange of the sort strategies. It returns, in one
// fresh slice, the block from every source rank concatenated in rank order,
// and counts[r], the length of rank r's block. The parts are copied before
// the rank waits; the caller keeps them. Without a budget on the
// communicator it is charged as the pairwise collective; under one as the
// linear schedule, metering the rounds' staged peak. The result is
// byte-identical either way.
func ExchangeBlocks[T any](c *vmpi.Comm, parts [][]T) (out []T, counts []int) {
	size := c.Size()
	if len(parts) != size {
		panic(fmt.Sprintf("redist: ExchangeBlocks got %d parts on a size-%d communicator", len(parts), size))
	}
	budget := c.MaxExchangeBytes()
	var peak int64
	if budget > 0 {
		maxCounts := make([]int64, size)
		for d := range parts {
			maxCounts[d] = int64(len(parts[d]))
		}
		mc := vmpi.Allreduce(c, maxCounts, vmpi.Max[int64])
		copy(maxCounts, mc)
		vmpi.Release(mc)
		peak = sendRounds(size, maxCounts, int(unsafe.Sizeof(*new(T))), budget, func(d int) int { return len(parts[d]) })
	}
	off := make([]int, size+1)
	for d, b := range parts {
		off[d+1] = off[d] + len(b)
	}
	counts = make([]int, size)
	out = exchange(c, "redist.ExchangeBlocks", budget > 0, off, func(buf []T, d int) []T { return append(buf, parts[d]...) },
		func(r, n int) { counts[r] = n })
	if budget > 0 {
		c.Gauge(MeterPeakBytes, float64(peak))
		c.Counter(MeterPeakBytes, float64(peak))
	}
	return out, counts
}
