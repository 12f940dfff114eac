package redist

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/costs"
	"repro/internal/vmpi"
)

// Memory-bounded redistribution planning.
//
// Every redistribution in this package — the collective all-to-all, the
// neighborhood exchange, the block remap, and the resort of
// method B — routes through a Plan. Following Rink et al.
// (*Memory-efficient array redistribution through portable collective
// communication*, PAPERS.md), a Plan under a byte budget decomposes the
// exchange into a deterministic schedule of bounded-footprint rounds:
// destinations are packed greedily, in staging order, into rounds whose
// worst-case staged bytes (a collective maximum, so every rank derives the
// same schedule) stay within the budget. The exchange is charged as the
// linear all-to-all: every message in staging order, round after round,
// before the first receive, and the receives in staging order too — so the
// result is byte-identical whatever the round structure. Without a budget
// the schedule is one round covering the whole staging order.
//
// The budget bounds what a rank *stages* for sending at any moment; the
// inbound side (the elements a rank ends up owning) is the irreducible
// output and is not charged against it. A single destination whose block
// alone exceeds the budget still gets a round of its own — the schedule
// degrades to per-destination rounds, never deadlocks.
//
// One round loop (sendRounds) walks every schedule, and one data path
// moves every block (exchange; the resort's positions and values are two
// payloads of one): each rank stages its blocks, and one vmpi.Replay
// charges the messages — the pairwise all-to-all for an unbudgeted dense
// plan (the golden figures pin its virtual time), else the linear one over
// every rank's staging order, whose messages are the rounds' own, so the
// rounds only meter the staged peak — and moves the buffers to their
// destinations, which copy their blocks out in parallel once they wake.
// Every rank of the communicator enters every Execute.

// Tags of the replayed linear schedules (traced send events name them): 201
// for the unbudgeted neighborhood exchange, 221 under a budget (the
// resort's paired position/value messages: 211/212, see resort.go).
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
	// Neighbors, when non-nil, requests the neighborhood backend over this
	// symmetric neighbor set (see ExchangeNeighborhood): a rank exchanges
	// blocks with its neighbors only, charged as messages to and from
	// them in list order. Feasibility is decided collectively in NewPlan;
	// if any rank routes outside its neighborhood every rank falls back
	// to the all-to-all backend.
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
// is simply garbage-collected — but the package's entry points
// (ExchangeNeighborhood, RemapBlocks, the resorts) free theirs once
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
	// are one scan of the (short) staging order, not an O(P) lookup table;
	// the first slot naming a rank is its slot, so a list that repeats a
	// rank or names self leaves the later slot empty.
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
				if d = slices.Index(pl.order, r); d < 0 {
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
		feasible := 0
		if sparse {
			feasible = 1
		}
		pl.useNbr = vmpi.AllreduceVal(c, feasible, vmpi.Min[int]) == 1
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
// over n staging-order slots and calls stage(k) for every slot k, which
// returns how many elements the slot counts as staged. The exchanges stage
// every block at once, so the rounds meter what a round would stage: the
// result is the staged-bytes peak, the largest single round.
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

// exchangeGroups is how many groups of consecutive staging-order slots a
// source stages its blocks in: one buffer per group, so P·8 allocations per
// dense exchange rather than P², and a group's buffers die once its
// destinations have copied, not when the last destination has.
const exchangeGroups = 8

// source is one rank's side of an exchange: its staging order; own, its
// slot of itself in a neighbourhood order, copied from the input after the
// replay, or -1 in a dense exchange (order = rank order), which stages every
// block so that the input can go while the rank waits; tag, the linear
// schedule's, 0 for the pairwise one; off, its block for slot k being
// off[k+1]-off[k] long; and in, its staged buffers by group. The replay
// leaves in in[k] the block from the source of slot k (dense: the group's
// buffer holding it, at[2k] and at[2k+1] long into it).
type source[T any] struct {
	order    []int
	own, tag int
	off      []int
	in       [][]T
	at       []int32
}

// stage builds the rank's side of an exchange, block(buf, k) appending its
// block for slot k to buf: one buffer per group of slots, or in a
// neighbourhood, whose groups are its slots, one per neighbour.
func stage[T any](order []int, own, tag int, off []int, block func(buf []T, k int) []T) *source[T] {
	src := &source[T]{order: order, own: own, tag: tag, off: off}
	ng := len(order)
	if own < 0 {
		ng = min(exchangeGroups, ng)
	}
	src.in = make([][]T, ng)
	for g := range src.in {
		lo, hi := group(g, ng, len(order))
		if n := off[hi] - off[lo]; n > 0 && g != own { // own is a group of its own
			buf := make([]T, 0, n)
			for k := lo; k < hi; k++ {
				buf = block(buf, k)
			}
			src.in[g] = buf
		}
	}
	return src
}

// size is the length of the rank's block for slot k.
func (s *source[T]) size(k int) int { return s.off[k+1] - s.off[k] }

// from is, after the replay, the block the source of slot k sent the rank.
func (s *source[T]) from(k int) []T {
	if s.at == nil {
		return s.in[k]
	}
	return s.in[k][s.at[2*k] : s.at[2*k]+s.at[2*k+1]]
}

// exchange is the one data path of Execute and ExchangeBlocks. The rank
// stages its blocks (stage), and one Replay charges the schedule — the
// pairwise all-to-all untagged, else the linear one over the staging orders
// — and moves the buffers to their destinations (moveGroups). The rank builds
// its output from them in its staging order, reporting each block's length
// to got as it goes. No rank reads another's input or plan after the replay.
func exchange[T any](c *vmpi.Comm, op string, order []int, own, tag int, off []int, block func(buf []T, k int) []T, got func(k, n int)) []T {
	src := stage(order, own, tag, off, block)
	if own < 0 {
		block = nil // every block is staged: the input can go while the rank waits
	}
	vmpi.Replay(c, op, src, func(h *vmpi.Replayer, all []*source[T]) {
		elem := int(unsafe.Sizeof(*new(T)))
		staging := func(r int) []int { return all[r].order }
		if all[0].own < 0 {
			staging = func(int) []int { return all[0].order } // all rank order: one copy stays cached
		}
		if all[0].tag == 0 {
			h.Alltoall(func(s, d int) int { return all[s].size(d) * elem }) // dense: slot d is rank d
		} else {
			h.AlltoallLinear(staging, []int{all[0].tag}, func(r, k, _ int) int { return all[r].size(k) * elem })
		}
		moveGroups(all)
	})
	n := 0
	for k := range src.in {
		if n += len(src.from(k)); k == own {
			n += src.size(k)
		}
	}
	out := make([]T, 0, n)
	for k := range src.in {
		if k == own {
			got(k, src.size(k))
			out = block(out, k)
		} else {
			b := src.from(k)
			got(k, len(b))
			out = append(out, b...)
		}
	}
	return out
}

// group returns the slots [lo, hi) of group g of ng over n.
func group(g, ng, n int) (lo, hi int) { return g * n / ng, (g + 1) * n / ng }

// moveGroups hands every staged block to its destination, so that the
// buffers are referenced only by their destinations. A neighbourhood pair
// trades its blocks in place: the first slot naming the other — first-match
// routing leaves a repeat empty. In a dense exchange the destinations of a
// group share one table of the sources' buffers for it.
func moveGroups[T any](all []*source[T]) {
	p := len(all)
	if all[0].own >= 0 {
		for s, src := range all {
			for k, d := range src.order {
				if d > s && k == slices.Index(src.order, d) {
					j := slices.Index(all[d].order, s)
					src.in[k], all[d].in[j] = all[d].in[j], src.in[k]
				}
			}
		}
		return
	}
	ng := min(exchangeGroups, p)
	tables := make([][][]T, ng)
	for g := range tables {
		lo, hi := group(g, ng, p)
		tables[g] = make([][]T, p)
		for s, src := range all {
			tables[g][s] = src.in[g]
		}
		ats := make([]int32, 2*p*(hi-lo))
		for d := lo; d < hi; d++ {
			at := ats[2*p*(d-lo) : 2*p*(d-lo+1)]
			for s, src := range all {
				at[2*s], at[2*s+1] = int32(src.off[d]-src.off[lo]), int32(src.size(d))
			}
			all[d].at = at
		}
	}
	for g, table := range tables {
		lo, hi := group(g, ng, p)
		for _, dst := range all[lo:hi] {
			dst.in = table
		}
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
	c.Compute(p.sendCost())

	// The rounds only meter: exchange stages every block at once. A
	// neighbourhood plan's own block — slot 0, most of an almost-sorted
	// input — goes from items straight into the output, yet is metered as
	// staged (Figure M pins the peak).
	peak := sendRounds(len(p.order), p.maxCounts, int(unsafe.Sizeof(*new(T))), p.budget, func(k int) int { return p.counts[k] })
	op, own, tag := "redist.Execute", -1, 0
	if p.useNbr {
		op, own, tag = "redist.Execute neighborhood", 0, tagNeighborhood
	}
	if p.Bounded() {
		op, tag = op+" budgeted", tagPlan
	}
	cost := 0.0
	out := exchange(c, op, p.order, own, tag, p.occOff, func(buf []T, k int) []T {
		for _, i := range p.occIdx[p.occOff[k]:p.occOff[k+1]] {
			buf = append(buf, items[i])
		}
		return buf
	}, func(k, n int) { cost += p.elemCost(k) * float64(n) })
	c.Compute(cost)
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
	op, tag := "redist.ExchangeBlocks", 0
	if budget > 0 {
		maxCounts := make([]int64, size)
		for d := range parts {
			maxCounts[d] = int64(len(parts[d]))
		}
		mc := vmpi.Allreduce(c, maxCounts, vmpi.Max[int64])
		peak = sendRounds(size, mc, int(unsafe.Sizeof(*new(T))), budget, func(d int) int { return len(parts[d]) })
		vmpi.Release(mc)
		op, tag = op+" budgeted", tagPlan
	}
	order, off := make([]int, size), make([]int, size+1)
	for d, b := range parts {
		order[d], off[d+1] = d, off[d]+len(b)
	}
	counts = make([]int, size)
	out = exchange(c, op, order, -1, tag, off, func(buf []T, d int) []T { return append(buf, parts[d]...) },
		func(r, n int) { counts[r] = n })
	if budget > 0 {
		c.Gauge(MeterPeakBytes, float64(peak))
		c.Counter(MeterPeakBytes, float64(peak))
	}
	return out, counts
}
