package redist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/vmpi"
)

// The planner's contract (DESIGN.md, "Redistribution"): under any budget
// the result of every redistribution operation is byte-identical to the
// unbudgeted one, and the staged peak never exceeds max(budget, largest
// single destination block) — a destination that alone exceeds the budget
// gets a singleton round.

var planRanks = []int{2, 3, 5, 8, 16, 64}

var planBudgets = []int64{1, 64, 1 << 10, 1 << 20}

// planProbe is one rank's outcome: the delivered elements plus the plan's
// metered staging peak.
type planProbe struct {
	Out  []elem
	Peak int64
}

// planInputs builds deterministic per-rank inputs and a target function:
// most elements go to one pseudo-random rank, some are dropped, some are
// duplicated to a second rank (the ghost pattern), so the exchange
// exercises drops, fan-out, and skewed counts.
func planInputs(p, seed int) (inputs [][]elem, dests [][][]int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	inputs = make([][]elem, p)
	dests = make([][][]int, p)
	id := int64(0)
	for r := range inputs {
		n := 4 + rng.Intn(28)
		inputs[r] = make([]elem, n)
		dests[r] = make([][]int, n)
		for i := range inputs[r] {
			inputs[r][i] = elem{ID: id, Val: rng.Float64()}
			id++
			switch rng.Intn(8) {
			case 0: // dropped
			case 1, 2: // duplicated
				dests[r][i] = []int{rng.Intn(p), rng.Intn(p)}
			default:
				dests[r][i] = []int{rng.Intn(p)}
			}
		}
	}
	return inputs, dests
}

// maxDestBytes returns the largest single (src,dst) block in bytes — the
// floor below which no budget can push the staged peak.
func maxDestBytes(p int, dests [][][]int, elemBytes int64) int64 {
	counts := make([][]int64, p)
	for r := range counts {
		counts[r] = make([]int64, p)
	}
	for r := range dests {
		for _, ds := range dests[r] {
			for _, d := range ds {
				counts[r][d]++
			}
		}
	}
	max := int64(0)
	for r := range counts {
		for _, n := range counts[r] {
			if b := n * elemBytes; b > max {
				max = b
			}
		}
	}
	return max
}

// runPlanExchange runs the exchange once and returns per-rank probes.
func runPlanExchange(p int, budget int64, inputs [][]elem, dests [][][]int) []planProbe {
	st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
		in := inputs[c.Rank()]
		d := dests[c.Rank()]
		pl := NewPlan(c, len(in), func(i int, dst []int) []int {
			return append(dst, d[i]...)
		}, Options{})
		c.SetResult(planProbe{Out: Execute(pl, in), Peak: pl.PeakBytes()})
	})
	probes := make([]planProbe, p)
	for r := range probes {
		probes[r] = st.Values[r].(planProbe)
	}
	return probes
}

// TestPlanExchangeMatchesUnbounded is the central property: across rank
// counts 2–64 and budgets down to a single byte, the bounded exchange
// delivers exactly the unbounded result on every rank, and the metered
// peak respects max(budget, largest destination block).
func TestPlanExchangeMatchesUnbounded(t *testing.T) {
	elemBytes := int64(16)
	for _, p := range planRanks {
		inputs, dests := planInputs(p, p)
		floor := maxDestBytes(p, dests, elemBytes)
		unbounded := runPlanExchange(p, 0, inputs, dests)
		for _, budget := range planBudgets {
			bounded := runPlanExchange(p, budget, inputs, dests)
			limit := budget
			if floor > limit {
				limit = floor
			}
			for r := range bounded {
				if !reflect.DeepEqual(bounded[r].Out, unbounded[r].Out) {
					t.Fatalf("p=%d budget=%d rank %d: bounded result diverges from unbounded", p, budget, r)
				}
				if bounded[r].Peak > limit {
					t.Errorf("p=%d budget=%d rank %d: staged peak %d exceeds max(budget, largest block)=%d",
						p, budget, r, bounded[r].Peak, limit)
				}
				if bounded[r].Peak > unbounded[r].Peak {
					t.Errorf("p=%d budget=%d rank %d: bounded peak %d above the unbounded staging total %d",
						p, budget, r, bounded[r].Peak, unbounded[r].Peak)
				}
			}
		}
	}
}

// TestPlanNeighborhoodMatchesUnbounded checks the neighborhood backend on
// a ring: the bounded rounds must reproduce the unbounded P2P result (self
// block first, then neighbors in list order) and keep the neighborhood
// decision itself budget-independent.
func TestPlanNeighborhoodMatchesUnbounded(t *testing.T) {
	type probe struct {
		Out  []elem
		Used bool
		Peak int64
	}
	for _, p := range []int{2, 4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(p)))
		inputs := make([][]elem, p)
		moves := make([][]int, p) // -1 left, 0 stay, +1 right
		for r := range inputs {
			n := 3 + rng.Intn(12)
			inputs[r] = make([]elem, n)
			moves[r] = make([]int, n)
			for i := range inputs[r] {
				inputs[r][i] = elem{ID: int64(r*100 + i), Val: rng.Float64()}
				moves[r][i] = rng.Intn(3) - 1
			}
		}
		run := func(budget int64) []probe {
			st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				self := c.Rank()
				neighbors := []int{(self + 1) % p, (self - 1 + p) % p}
				if p == 2 {
					neighbors = neighbors[:1]
				}
				in := inputs[self]
				mv := moves[self]
				pl := NewPlan(c, len(in), ToRank(func(i int) int {
					return (self + mv[i] + p) % p
				}), Options{Neighbors: neighbors})
				c.SetResult(probe{Out: Execute(pl, in), Used: pl.UsedNeighborhood(), Peak: pl.PeakBytes()})
			})
			probes := make([]probe, p)
			for r := range probes {
				probes[r] = st.Values[r].(probe)
			}
			return probes
		}
		ref := run(0)
		for _, budget := range []int64{0, 1, 48, 1 << 16} {
			got := run(budget)
			for r := range got {
				if !got[r].Used {
					t.Fatalf("p=%d budget=%d rank %d: ring targets fell back to all-to-all", p, budget, r)
				}
				if !reflect.DeepEqual(got[r].Out, ref[r].Out) {
					t.Fatalf("p=%d budget=%d rank %d: neighborhood result diverges", p, budget, r)
				}
			}
		}
	}
}

// TestPlanRemapMatchesUnbounded checks the block remap under budgets: the
// redistributed blocks must be byte-identical to the unbounded remap for
// both a full-world and a shrinking target partition.
func TestPlanRemapMatchesUnbounded(t *testing.T) {
	const p = 8
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]elem, p)
	id := int64(0)
	for r := range inputs {
		inputs[r] = make([]elem, 2+rng.Intn(20))
		for i := range inputs[r] {
			inputs[r][i] = elem{ID: id, Val: rng.Float64()}
			id++
		}
	}
	for _, newP := range []int{3, p} {
		run := func(budget int64) [][]elem {
			st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				c.SetResult(RemapBlocks(c, inputs[c.Rank()], newP))
			})
			out := make([][]elem, p)
			for r := range out {
				out[r] = st.Values[r].([]elem)
			}
			return out
		}
		ref := run(0)
		for _, budget := range planBudgets {
			if got := run(budget); !reflect.DeepEqual(got, ref) {
				t.Fatalf("newP=%d budget=%d: bounded remap diverges", newP, budget)
			}
		}
	}
}

// TestPlanResortMatchesUnbounded checks the bounded resort: a random
// global permutation with stride-3 payloads must land every value in
// exactly the position the unbounded resort puts it, at any budget.
func TestPlanResortMatchesUnbounded(t *testing.T) {
	const p, perRank, stride = 5, 6, 3
	n := p * perRank
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	run := func(budget int64) [][]float64 {
		st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
			self := c.Rank()
			vals := make([]float64, perRank*stride)
			indices := make([]Index, perRank)
			for i := 0; i < perRank; i++ {
				g := self*perRank + i
				for s := 0; s < stride; s++ {
					vals[i*stride+s] = float64(g*stride + s)
				}
				indices[i] = MakeIndex(perm[g]/perRank, perm[g]%perRank)
			}
			c.SetResult(ResortFloats(c, vals, stride, indices, perRank))
		})
		out := make([][]float64, p)
		for r := range out {
			out[r] = st.Values[r].([]float64)
		}
		return out
	}
	ref := run(0)
	for _, budget := range planBudgets {
		if got := run(budget); !reflect.DeepEqual(got, ref) {
			t.Fatalf("budget=%d: bounded resort diverges", budget)
		}
	}
}

// TestResortMatchesReference: executeResort — one Replay whose only fork is
// the charge — against the message-level resort it replaced
// (refExecuteResort: two pairwise all-to-alls without a budget, paired
// position/value messages on 211/212 under one), in results, clocks,
// counters and traced events, without a budget, with 1 B (a round per
// destination) and with one element's 32 bytes, at one run slot and four.
// A ninth of the particles are ghosts (Invalid), and the survivors land in
// a random permutation over uneven new counts.
func TestResortMatchesReference(t *testing.T) {
	const stride = 3
	for _, p := range []int{1, 3, 7, 27} {
		rng := rand.New(rand.NewSource(int64(p)))
		indices := make([][]Index, p)
		var valid [][2]int
		for r := range indices {
			indices[r] = make([]Index, rng.Intn(12))
			for i := range indices[r] {
				indices[r][i] = Invalid
				if rng.Intn(9) > 0 {
					valid = append(valid, [2]int{r, i})
				}
			}
		}
		nNew := make([]int, p)
		for _, j := range rng.Perm(len(valid)) {
			src, dst := valid[j], rng.Intn(p)
			indices[src[0]][src[1]] = MakeIndex(dst, nNew[dst])
			nNew[dst]++
		}
		for _, workers := range []int{1, 4} {
			for _, budget := range []int64{0, 1, 8 + stride*8} {
				run := func(resort func(*Plan, []float64, int, []Index, int) []float64) *vmpi.Stats {
					cfg := vmpi.Config{Ranks: p, Workers: workers, MaxExchangeBytes: budget, Trace: true, Model: netmodel.NewTorus(p)}
					return vmpi.Run(cfg, func(c *vmpi.Comm) {
						self := c.Rank()
						vals := make([]float64, len(indices[self])*stride)
						for i := range vals {
							vals[i] = float64(self*1000 + i)
						}
						pl := NewPlan(c, len(indices[self]), func(i int, dst []int) []int {
							if x := indices[self][i]; x.Valid() {
								dst = append(dst, x.Rank())
							}
							return dst
						}, Options{})
						c.SetResult(resort(pl, vals, stride, indices[self], nNew[self]))
						pl.Free()
					})
				}
				got, want := run(executeResort[float64]), run(refExecuteResort[float64])
				sameRuns(t, fmt.Sprintf("p=%d workers=%d budget=%d", p, workers, budget), got, want)
			}
		}
	}
}

// TestExchangeBlocksMatchesAlltoall checks the sorts' block exchange
// against the same exchange through the collectives (refExchangeBlocks):
// without a budget the copying vmpi.Alltoall, under one the linear
// all-to-all's messages.
// Every rank's concatenation and counts must be the blocks the reference
// delivers, and its clock bits, message and byte counts and traced events
// the reference's, on both machine models.
func TestExchangeBlocksMatchesAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 8, 16} {
		rng := rand.New(rand.NewSource(int64(p)))
		sizes := make([][]int, p)
		for r := range sizes {
			sizes[r] = make([]int, p)
			for d := range sizes[r] {
				sizes[r][d] = rng.Intn(9)
			}
		}
		parts := func(self int) [][]elem {
			parts := make([][]elem, p)
			for d := range parts {
				parts[d] = make([]elem, sizes[self][d])
				for i := range parts[d] {
					parts[d][i] = elem{ID: int64(self*1000 + d*100 + i)}
				}
			}
			return parts
		}
		for _, torus := range []bool{false, true} {
			for _, budget := range append([]int64{0}, planBudgets...) {
				cfg := vmpi.Config{Ranks: p, MaxExchangeBytes: budget, Trace: true}
				if torus {
					cfg.Model = netmodel.NewTorus(p)
				}
				got := vmpi.Run(cfg, func(c *vmpi.Comm) {
					flat, counts := ExchangeBlocks(c, parts(c.Rank()))
					c.SetResult(splitBlocks(flat, counts))
				})
				want := vmpi.Run(cfg, func(c *vmpi.Comm) {
					c.SetResult(refExchangeBlocks(c, parts(c.Rank())))
				})
				sameRuns(t, fmt.Sprintf("p=%d torus=%v budget=%d", p, torus, budget), got, want)
			}
		}
	}
}

// splitBlocks cuts a concatenation back into its per-source blocks.
func splitBlocks(flat []elem, counts []int) [][]elem {
	blocks := make([][]elem, len(counts))
	for r, n := range counts {
		blocks[r], flat = flat[:n:n], flat[n:]
	}
	return blocks
}

// sameRuns fails t unless two runs agree rank by rank: results (nil and
// empty blocks alike), clock bits, message and byte counts, phase times and
// the traced events.
func sameRuns(t *testing.T, where string, got, want *vmpi.Stats) {
	t.Helper()
	for r := range want.Clocks {
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"results", normBlocks(got.Values[r]), normBlocks(want.Values[r])},
			{"clock bits", math.Float64bits(got.Clocks[r]), math.Float64bits(want.Clocks[r])},
			{"messages", got.MessagesSent[r], want.MessagesSent[r]},
			{"bytes", got.BytesSent[r], want.BytesSent[r]},
			{"phases", got.Phases[r], want.Phases[r]},
			{"events", got.Events.ByRank[r], want.Events.ByRank[r]},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s rank %d: %s differ from the reference:\n got %v\nwant %v", where, r, c.what, c.got, c.want)
			}
		}
	}
}

// normBlocks maps nil and empty blocks alike to empty, so that results
// compare by their elements; a result of another type compares as it is.
func normBlocks(v any) any {
	blocks, ok := v.([][]elem)
	if !ok {
		return v
	}
	out := make([][]elem, len(blocks))
	for r, b := range blocks {
		out[r] = append([]elem{}, b...)
	}
	return out
}

// TestDenseExchangeLeavesSourcesFree: once a dense exchange returns, no
// other rank reads the rank's input or plan — the destinations copy from
// buffers the sources staged before the meeting. Each rank scribbles over
// its input and frees its plan the moment Execute returns, then builds a
// new plan (which may reuse the freed one's arrays), and scribbles over its
// parts the moment ExchangeBlocks returns. Every result must still be the
// oracle's, at one run slot and at four, and under the race detector no
// access may race.
func TestDenseExchangeLeavesSourcesFree(t *testing.T) {
	const p = 9
	inputs, dests := planInputs(p, 33)
	want := scatterOracle(inputs, dests, func(int) []int { return allRanks(p) })
	block := func(src, dst int) []elem {
		b := make([]elem, (src*7+dst*3)%5)
		for i := range b {
			b[i] = elem{ID: int64(src*1000 + dst*100 + i)}
		}
		return b
	}
	scribble := func(items []elem) {
		for i := range items {
			items[i] = elem{ID: -1, Val: math.NaN()}
		}
	}
	type result struct {
		Dense  []elem
		Blocks [][]elem
	}
	for _, workers := range []int{1, 4} {
		for _, budget := range []int64{0, 16} {
			st := vmpi.Run(vmpi.Config{Ranks: p, Workers: workers, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				self := c.Rank()
				var res result
				items := append([]elem(nil), inputs[self]...)
				pl := NewPlan(c, len(items), func(i int, dst []int) []int { return append(dst, dests[self][i]...) }, Options{})
				res.Dense = Execute(pl, items)
				scribble(items)
				pl.Free()
				NewPlan(c, len(items), ToRank(func(i int) int { return (self + i) % p }), Options{MaxBytes: -1}).Free()

				parts := make([][]elem, p)
				for d := range parts {
					parts[d] = block(self, d)
				}
				res.Blocks = splitBlocks(ExchangeBlocks(c, parts))
				for _, b := range parts {
					scribble(b)
				}
				c.SetResult(res)
			})
			for r, v := range st.Values {
				got := v.(result)
				if !sameElems(got.Dense, want[r]) {
					t.Errorf("workers=%d budget=%d rank %d: dense Execute differs from the oracle", workers, budget, r)
				}
				for src, b := range got.Blocks {
					if !sameElems(b, block(src, r)) {
						t.Errorf("workers=%d budget=%d rank %d: block from %d differs from the oracle", workers, budget, r, src)
					}
				}
			}
		}
	}
}

// TestPlanMeterEmitsGauge checks the metering surface: a budgeted plan
// emits the redist/peak_bytes gauge and counter, an unmetered unbounded
// plan emits neither (the golden figures depend on that silence), and
// Options.Meter turns the meter on without a budget.
func TestPlanMeterEmitsGauge(t *testing.T) {
	run := func(budget int64, meter bool) *vmpi.Stats {
		return vmpi.Run(vmpi.Config{Ranks: 4, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
			items := make([]elem, 16)
			for i := range items {
				items[i] = elem{ID: int64(c.Rank()*16 + i)}
			}
			pl := NewPlan(c, len(items), ToRank(func(i int) int { return i % 4 }), Options{Meter: meter})
			Execute(pl, items)
		})
	}
	if st := run(0, false); st.Events.Counter(MeterPeakBytes) != 0 {
		t.Errorf("unmetered unbounded plan emitted %s", MeterPeakBytes)
	}
	for _, cse := range []struct {
		name   string
		budget int64
		meter  bool
	}{{"budget", 128, false}, {"meter", 0, true}} {
		st := run(cse.budget, cse.meter)
		peak, ok := st.Events.GaugeMax(MeterPeakBytes)
		if !ok || peak <= 0 {
			t.Errorf("%s: no %s gauge (peak %v ok %v)", cse.name, MeterPeakBytes, peak, ok)
		}
		if st.Events.Counter(MeterPeakBytes) <= 0 {
			t.Errorf("%s: no %s counter", cse.name, MeterPeakBytes)
		}
	}
}

// ringNeighbors is the symmetric ±1 neighbor list of rank r on a p-ring.
func ringNeighbors(r, p int) []int { return ringRadius(r, p, 1) }

// ringRadius is the symmetric neighbor list r±1 … r±radius of rank r on a
// p-ring, unreduced: on a small ring it repeats ranks and names r itself,
// which the planner must tolerate. Empty, but non-nil, at radius 0.
func ringRadius(r, p, radius int) []int {
	nbrs := make([]int, 0, 2*radius)
	for k := 1; k <= radius; k++ {
		nbrs = append(nbrs, (r+k)%p, ((r-k)%p+p)%p)
	}
	return nbrs
}

// sameElems compares two results, nil and empty alike.
func sameElems(a, b []elem) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// allRanks is the all-to-all backend's source order.
func allRanks(p int) []int {
	all := make([]int, p)
	for r := range all {
		all[r] = r
	}
	return all
}

// scatterOracle is the sequential reference every exchange is checked
// against: rank r ends up with, for each source rank of from(r) — at its
// first mention only; the slot of a repeated source stays empty — the
// occurrences that source routes to r, in emission order.
func scatterOracle(inputs [][]elem, dests [][][]int, from func(r int) []int) [][]elem {
	want := make([][]elem, len(inputs))
	for r := range want {
		seen := make([]bool, len(inputs))
		for _, src := range from(r) {
			if seen[src] {
				continue
			}
			seen[src] = true
			for i, e := range inputs[src] {
				for _, d := range dests[src][i] {
					if d == r {
						want[r] = append(want[r], e)
					}
				}
			}
		}
	}
	return want
}

// TestPlanSmallWorldsMatchOracle runs all four operations — dense exchange,
// neighborhood exchange, resort, ExchangeBlocks — on the degenerate and odd
// world sizes 1, 3, 7 under budgets {1 byte, one element, none} and checks
// every rank's result against a sequential scatter of the same routing.
func TestPlanSmallWorldsMatchOracle(t *testing.T) {
	const perRank, stride = 4, 2
	type result struct {
		Dense, Nbr []elem
		Resort     []float64
		Blocks     [][]elem
	}
	for _, p := range []int{1, 3, 7} {
		inputs, dests := planInputs(p, 100+p)
		ringDst := func(src, i int) int { return (src + int(inputs[src][i].ID%3) - 1 + p) % p }
		perm := rand.New(rand.NewSource(int64(p))).Perm(p * perRank)
		block := func(src, dst int) []elem {
			b := make([]elem, (src*3+dst*5)%4)
			for i := range b {
				b[i] = elem{ID: int64(src*1000 + dst*100 + i)}
			}
			return b
		}

		// The oracle: scatter every source's elements sequentially.
		ringDests := make([][][]int, p)
		for src := range inputs {
			ringDests[src] = make([][]int, len(inputs[src]))
			for i := range inputs[src] {
				ringDests[src][i] = []int{ringDst(src, i)}
			}
		}
		dense := scatterOracle(inputs, dests, func(int) []int { return allRanks(p) })
		nbr := scatterOracle(inputs, ringDests, func(r int) []int { return append([]int{r}, ringNeighbors(r, p)...) })
		want := make([]result, p)
		for r := range want {
			want[r].Dense, want[r].Nbr = dense[r], nbr[r]
			want[r].Resort = make([]float64, perRank*stride)
			want[r].Blocks = make([][]elem, p)
			for src := range inputs {
				want[r].Blocks[src] = block(src, r)
			}
		}
		for g, at := range perm {
			for s := 0; s < stride; s++ {
				want[at/perRank].Resort[at%perRank*stride+s] = float64(g*stride + s)
			}
		}

		for _, budget := range []int64{1, 16, 0} {
			st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				self := c.Rank()
				var res result
				res.Dense = denseExchange(c, inputs[self], func(i int, dst []int) []int {
					return append(dst, dests[self][i]...)
				})
				var used bool
				res.Nbr, used = ExchangeNeighborhood(c, inputs[self],
					ToRank(func(i int) int { return ringDst(self, i) }), ringNeighbors(self, p))
				if !used {
					panic("ring routing fell back to all-to-all")
				}
				vals := make([]float64, perRank*stride)
				indices := make([]Index, perRank)
				for i := range indices {
					g := self*perRank + i
					for s := 0; s < stride; s++ {
						vals[i*stride+s] = float64(g*stride + s)
					}
					indices[i] = MakeIndex(perm[g]/perRank, perm[g]%perRank)
				}
				res.Resort = ResortFloats(c, vals, stride, indices, perRank)
				parts := make([][]elem, p)
				for d := range parts {
					parts[d] = block(self, d)
				}
				res.Blocks = splitBlocks(ExchangeBlocks(c, parts))
				c.SetResult(res)
			})
			for r, v := range st.Values {
				got := v.(result)
				if !sameElems(got.Dense, want[r].Dense) {
					t.Errorf("p=%d budget=%d rank %d: dense exchange differs from the oracle", p, budget, r)
				}
				if !sameElems(got.Nbr, want[r].Nbr) {
					t.Errorf("p=%d budget=%d rank %d: neighborhood exchange differs from the oracle", p, budget, r)
				}
				if !reflect.DeepEqual(got.Resort, want[r].Resort) {
					t.Errorf("p=%d budget=%d rank %d: resort differs from the oracle", p, budget, r)
				}
				for src := range got.Blocks {
					if !sameElems(got.Blocks[src], want[r].Blocks[src]) {
						t.Errorf("p=%d budget=%d rank %d: block from %d differs from the oracle", p, budget, r, src)
					}
				}
			}
		}
	}
}

// TestOneRoundBudgetClocksMatchUnbudgeted pins that "no budget" is nothing
// but a one-round schedule: a neighborhood plan whose budget fits the whole
// staging order in one round advances every virtual clock exactly as the
// unbudgeted plan does, once the unbudgeted run replays the schedule
// collective a budgeted NewPlan performs.
func TestOneRoundBudgetClocksMatchUnbudgeted(t *testing.T) {
	const p = 7
	inputs, _ := planInputs(p, 7)
	run := func(maxBytes int64) []float64 {
		return vmpi.Run(vmpi.Config{Ranks: p, Model: netmodel.NewTorus(p)}, func(c *vmpi.Comm) {
			self := c.Rank()
			in := inputs[self]
			pl := NewPlan(c, len(in), ToRank(func(i int) int {
				return (self + int(in[i].ID%3) - 1 + p) % p
			}), Options{Neighbors: ringNeighbors(self, p), MaxBytes: maxBytes})
			if !pl.Bounded() {
				vmpi.Release(vmpi.Allreduce(c, make([]int64, p), vmpi.Max[int64]))
			} else if pl.Rounds(16) != 1 {
				panic("budget does not fit one round")
			}
			Execute(pl, in)
		}).Clocks
	}
	if unbudgeted, oneRound := run(-1), run(1<<30); !reflect.DeepEqual(unbudgeted, oneRound) {
		t.Fatalf("clocks differ:\nunbudgeted: %v\none round:  %v", unbudgeted, oneRound)
	}
}

// fuzzPlanCase decodes a byte string into one routing problem: byte 0 the
// world size 1…9, byte 1 the ring radius 0…2, byte 2 the budget (none, one
// byte, one element), bytes 3–4 the mask of ranks that may target any rank
// (the others stay inside self + neighbors), then one byte per rank for its
// element count and one or more per element for its target list. The
// string is read cyclically, shifted by the lap, so a short input still
// yields varied routing.
func fuzzPlanCase(data []byte) (p, radius int, budget int64, inputs [][]elem, dests [][][]int) {
	pos := 0
	next := func() int {
		b := pos
		if len(data) > 0 {
			b = int(data[pos%len(data)]) + pos/len(data)
		}
		pos++
		return b & 0xff
	}
	p = 1 + next()%9
	radius = next() % 3
	budget = []int64{0, 1, 16}[next()%3]
	escapes := next() | next()<<8
	inputs = make([][]elem, p)
	dests = make([][][]int, p)
	for r := range inputs {
		inputs[r] = make([]elem, []int{0, 0, 1, 2, 3, 5, 17, 40}[next()%8])
		dests[r] = make([][]int, len(inputs[r]))
	}
	for r := range inputs {
		inside := append([]int{r}, ringRadius(r, p, radius)...)
		for i := range inputs[r] {
			inputs[r][i] = elem{ID: int64(r*1000 + i), Val: float64(i)}
			b := next()
			for k := []int{1, 1, 1, 0, 2, 1, 3, 2}[b&7]; k > 0; k-- {
				b = b>>3 + next()
				if escapes>>r&1 == 1 {
					dests[r][i] = append(dests[r][i], b%p)
				} else {
					dests[r][i] = append(dests[r][i], inside[b%len(inside)])
				}
			}
		}
	}
	return p, radius, budget, inputs, dests
}

// FuzzPlanMatchesOracle is the planner's differential test: whatever the
// world size, neighborhood, budget and routing — empty ranks, duplicated and
// dropped elements, neighbor lists that repeat ranks or name self, some
// ranks routing outside their neighborhood while the others have already
// bucketed sparsely — Exchange and ExchangeNeighborhood deliver the
// sequential scatter on every rank, the neighborhood backend is used
// exactly when no rank routed outside, and targets runs once per element,
// in order. Execute, dense and over the neighbourhood, under the case's
// budget and without one, also matches the message-level path it replaced
// (refExecuteDense, refExecuteNeighborhood) in clocks, counters and traced
// events as well as in its results.
func FuzzPlanMatchesOracle(f *testing.F) {
	f.Add([]byte{4, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, radius, budget, inputs, dests := fuzzPlanCase(data)
		feasible := true
		for r := range dests {
			for _, ds := range dests[r] {
				for _, d := range ds {
					if d != r && !slices.Contains(ringRadius(r, p, radius), d) {
						feasible = false
					}
				}
			}
		}
		wantDense := scatterOracle(inputs, dests, func(int) []int { return allRanks(p) })
		wantNbr := wantDense
		if feasible {
			wantNbr = scatterOracle(inputs, dests, func(r int) []int { return append([]int{r}, ringRadius(r, p, radius)...) })
		}
		type result struct {
			Dense, Nbr []elem
			Used       bool
			Calls      int
		}
		st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
			self := c.Rank()
			var res result
			targets := func(i int, dst []int) []int {
				if i != res.Calls%len(inputs[self]) {
					panic(fmt.Sprintf("targets(%d) is call %d", i, res.Calls))
				}
				res.Calls++
				return append(dst, dests[self][i]...)
			}
			res.Dense = denseExchange(c, inputs[self], targets)
			res.Nbr, res.Used = ExchangeNeighborhood(c, inputs[self], targets, ringRadius(self, p, radius))
			c.SetResult(res)
		})
		for r, v := range st.Values {
			got := v.(result)
			where := fmt.Sprintf("p=%d radius=%d budget=%d feasible=%v rank %d", p, radius, budget, feasible, r)
			if !sameElems(got.Dense, wantDense[r]) {
				t.Errorf("%s: dense exchange differs from the oracle", where)
			}
			if !sameElems(got.Nbr, wantNbr[r]) {
				t.Errorf("%s: neighborhood exchange differs from the oracle", where)
			}
			if got.Used != feasible {
				t.Errorf("%s: neighborhood backend used: %v", where, got.Used)
			}
			if got.Calls != 2*len(inputs[r]) {
				t.Errorf("%s: %d targets calls over two plans of %d elements", where, got.Calls, len(inputs[r]))
			}
		}

		// Execute against the message-level references — refExecuteDense,
		// or refExecuteNeighborhood on a plan that won the vote — on the
		// communicator's budget, without one and on the case's budget,
		// dense and over the ring neighbourhood in the same world: results,
		// clocks, counters and events.
		cfg := vmpi.Config{Ranks: p, MaxExchangeBytes: budget, Trace: true, Workers: 1 + 3*(len(data)%2)}
		if radius > 0 {
			cfg.Model = netmodel.NewTorus(p)
		}
		run := func(execute func(*Plan, []elem) []elem) *vmpi.Stats {
			return vmpi.Run(cfg, func(c *vmpi.Comm) {
				self := c.Rank()
				targets := func(i int, dst []int) []int { return append(dst, dests[self][i]...) }
				var outs [][]elem
				for _, nbrs := range [][]int{nil, ringRadius(self, p, radius)} {
					for _, maxBytes := range []int64{0, -1, budget} {
						pl := NewPlan(c, len(inputs[self]), targets, Options{MaxBytes: maxBytes, Neighbors: nbrs})
						outs = append(outs, execute(pl, inputs[self]))
						pl.Free()
					}
				}
				c.SetResult(outs)
			})
		}
		got, want := run(Execute[elem]), run(func(pl *Plan, items []elem) []elem {
			if pl.UsedNeighborhood() {
				return refExecuteNeighborhood(pl, items)
			}
			return refExecuteDense(pl, items)
		})
		sameRuns(t, fmt.Sprintf("p=%d radius=%d budget=%d feasible=%v", p, radius, budget, feasible), got, want)
		for r, v := range got.Values {
			for k, out := range v.([][]elem) {
				if want := [][][]elem{wantDense, wantNbr}[k/3][r]; !sameElems(out, want) {
					t.Errorf("p=%d radius=%d budget=%d rank %d: Execute %d differs from the oracle", p, radius, budget, r, k)
				}
			}
		}
	})
}

// TestNeighborhoodFallbackDensifies pins the lost vote under mixed
// feasibility: exactly one rank routes outside its neighborhood — after a
// few elements inside it — so every other rank has bucketed sparsely and
// must re-bucket. Several elements per destination, with duplication and
// drops; the result equals Exchange element for element, targets still runs
// once per element, and clocks, messages and bytes equal a world that
// replays the vote and then calls Exchange.
func TestNeighborhoodFallbackDensifies(t *testing.T) {
	for _, p := range []int{2, 5, 27} {
		radius := 1
		if p == 2 {
			radius = 0 // on two ranks only an empty neighborhood leaves an outside
		}
		bad := p - 2
		far := (bad + p/2) % p
		inputs, _ := planInputs(p, 200+p)
		dests := make([][][]int, p)
		for r := range inputs {
			inside := append([]int{r}, ringRadius(r, p, radius)...)
			dests[r] = make([][]int, len(inputs[r]))
			for i, e := range inputs[r] {
				switch d := inside[i%len(inside)]; e.ID % 5 {
				case 0: // dropped
				case 1: // duplicated
					dests[r][i] = []int{d, r}
				default:
					dests[r][i] = []int{d}
				}
			}
			if r == bad {
				dests[r][3] = []int{r, far, far}
			}
		}
		type result struct {
			Out   []elem
			Calls int
		}
		run := func(budget int64, replay bool) *vmpi.Stats {
			return vmpi.Run(vmpi.Config{Ranks: p, Model: netmodel.NewTorus(p), MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				self := c.Rank()
				var res result
				targets := func(i int, dst []int) []int {
					res.Calls++
					return append(dst, dests[self][i]...)
				}
				if replay {
					vmpi.AllreduceVal(c, 1, vmpi.Min[int])
					res.Out = denseExchange(c, inputs[self], targets)
				} else {
					var used bool
					res.Out, used = ExchangeNeighborhood(c, inputs[self], targets, ringRadius(self, p, radius))
					if used {
						panic("neighborhood backend used although one rank routes outside")
					}
				}
				c.SetResult(res)
			})
		}
		for _, budget := range []int64{0, 1, 16} {
			got, want := run(budget, false), run(budget, true)
			for r := range got.Values {
				g, w := got.Values[r].(result), want.Values[r].(result)
				if !sameElems(g.Out, w.Out) {
					t.Errorf("p=%d budget=%d rank %d: fallback result differs from Exchange", p, budget, r)
				}
				if g.Calls != len(inputs[r]) {
					t.Errorf("p=%d budget=%d rank %d: %d targets calls for %d elements", p, budget, r, g.Calls, len(inputs[r]))
				}
			}
			if got.MaxClock() != want.MaxClock() || got.TotalMessages() != want.TotalMessages() || got.TotalBytes() != want.TotalBytes() {
				t.Errorf("p=%d budget=%d: fallback %v s / %d messages / %d bytes, replayed Exchange %v / %d / %d", p, budget,
					got.MaxClock(), got.TotalMessages(), got.TotalBytes(), want.MaxClock(), want.TotalMessages(), want.TotalBytes())
			}
		}
	}
}

// BenchmarkPlanNeighborhoodP4096 is the Figure 10-right cell as one op: every
// rank of a 4096-rank world runs NewPlan + Execute + Free over its ±1 ring
// neighbors on 128 uint64 keys, 1-in-8 of them crossing. Beside ns/op and
// allocs/op it reports what a rank holds while parked in the plan's vote.
func BenchmarkPlanNeighborhoodP4096(b *testing.B) {
	const p, n = 4096, 128
	b.ReportAllocs()
	vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		self := c.Rank()
		nbrs := ringNeighbors(self, p)
		keys := make([]uint64, n)
		target := ToRank(func(i int) int {
			if i%8 == 0 {
				return nbrs[i/8%2]
			}
			return self
		})
		vmpi.Barrier(c)
		if self == 0 {
			b.ResetTimer()
		}
		for it := 0; it < b.N; it++ {
			pl := NewPlan(c, len(keys), target, Options{Neighbors: nbrs})
			keys = Execute(pl, keys)
			pl.Free()
		}
		vmpi.Barrier(c)
		if self == 0 {
			b.StopTimer()
		}
	})
	b.ReportMetric(parkedPlanBytes(b, p, n), "parked-B/rank")
}

// recoverRun runs body on four ranks of a budgeted world with one run slot
// and returns what the run panicked with.
func recoverRun(body func(c *vmpi.Comm)) (p any) {
	defer func() { p = recover() }()
	vmpi.Run(vmpi.Config{Ranks: 4, Workers: 1, MaxExchangeBytes: 16}, body)
	return nil
}

// A dense Execute is one rendezvous, named after the exchange and whether
// it is budgeted, so a rank that leaves it out, or whose plan resolves
// another transport, gets a diagnosis naming it instead of a hang. Two
// positive budgets agree on the transport; only an unbounded plan
// (MaxBytes < 0) against a budgeted one diverges, at the budget's
// collective maximum of the counts.
func TestBudgetedExecuteFailuresNameTheRendezvous(t *testing.T) {
	route := ToRank(func(i int) int { return i % 4 })
	for _, tc := range []struct {
		name string
		body func(c *vmpi.Comm)
		want string
	}{
		{"skipped", func(c *vmpi.Comm) {
			pl := NewPlan(c, 8, route, Options{})
			if c.Rank() == 2 {
				return
			}
			//parlint:allow collsym -- rank 2 skips this Execute on purpose
			Execute(pl, make([]float64, 8))
		}, "vmpi: deadlock: all ranks blocked in receive or collective:\n" +
			"  3 of 4 ranks parked in redist.Execute budgeted with state redist.source[float64]; missing ranks [2]\n"},
		{"max-bytes", func(c *vmpi.Comm) {
			maxBytes := int64(16)
			if c.Rank() == 1 {
				maxBytes = -1
			}
			Execute(NewPlan(c, 8, route, Options{MaxBytes: maxBytes}), make([]float64, 8))
		}, "vmpi: collective mismatch on a 4-rank communicator: rank 0 entered Allreduce of []int64, length 4, rank 1 entered redist.Execute with state redist.source[float64]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if p := recoverRun(tc.body); fmt.Sprint(p) != tc.want {
				t.Fatalf("panic:\n%v\nwant:\n%s", p, tc.want)
			}
		})
	}
}
