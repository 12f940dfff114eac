package redist

import (
	"math/rand"
	"reflect"
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

// TestExchangeBlocksMatchesAlltoall checks the sorts' block-exchange
// collective: under any budget it must return exactly what the unbounded
// copying collective returns, block per source rank in rank order.
func TestExchangeBlocksMatchesAlltoall(t *testing.T) {
	for _, p := range []int{2, 8, 16} {
		rng := rand.New(rand.NewSource(int64(p)))
		sizes := make([][]int, p)
		for r := range sizes {
			sizes[r] = make([]int, p)
			for d := range sizes[r] {
				sizes[r][d] = rng.Intn(9)
			}
		}
		run := func(budget int64) [][][]elem {
			st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				self := c.Rank()
				parts := make([][]elem, p)
				for d := range parts {
					parts[d] = make([]elem, sizes[self][d])
					for i := range parts[d] {
						parts[d][i] = elem{ID: int64(self*1000 + d*100 + i)}
					}
				}
				c.SetResult(ExchangeBlocks(c, parts))
			})
			out := make([][][]elem, p)
			for r := range out {
				out[r] = st.Values[r].([][]elem)
			}
			return out
		}
		ref := run(0)
		for _, budget := range planBudgets {
			if got := run(budget); !reflect.DeepEqual(got, ref) {
				t.Fatalf("p=%d budget=%d: bounded block exchange diverges", p, budget)
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

// ringNeighbors is the symmetric ±1 neighbor list of rank r on a p-ring
// (empty, but non-nil, on a single-rank world).
func ringNeighbors(r, p int) []int {
	if p == 1 {
		return []int{}
	}
	return []int{(r + 1) % p, (r - 1 + p) % p}
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
	sameElems := func(a, b []elem) bool {
		return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
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
		want := make([]result, p)
		ringFrom := func(src, dst int) (out []elem) {
			for i, e := range inputs[src] {
				if ringDst(src, i) == dst {
					out = append(out, e)
				}
			}
			return out
		}
		for r := range want {
			want[r].Nbr = ringFrom(r, r)
			for _, nb := range ringNeighbors(r, p) {
				want[r].Nbr = append(want[r].Nbr, ringFrom(nb, r)...)
			}
			want[r].Resort = make([]float64, perRank*stride)
			want[r].Blocks = make([][]elem, p)
		}
		for src := range inputs {
			for i, e := range inputs[src] {
				for _, d := range dests[src][i] {
					want[d].Dense = append(want[d].Dense, e)
				}
			}
			for dst := range want {
				want[dst].Blocks[src] = block(src, dst)
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
				res.Dense = Exchange(c, inputs[self], func(i int, dst []int) []int {
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
				res.Blocks = ExchangeBlocks(c, parts)
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
