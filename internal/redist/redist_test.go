package redist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/netmodel"
	"repro/internal/vmpi"
)

// denseExchange sends element i to every rank targets(i) lists, through
// one plan with default Options.
func denseExchange[T any](c *vmpi.Comm, items []T, targets Targets) []T {
	pl := NewPlan(c, len(items), targets, Options{})
	out := Execute(pl, items)
	pl.Free()
	return out
}

func TestIndexPacking(t *testing.T) {
	f := func(rank, pos uint32) bool {
		r := int(rank & 0x7fffffff)
		p := int(pos & 0x7fffffff)
		x := MakeIndex(r, p)
		return x.Rank() == r && x.Pos() == p && x.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Invalid.Valid() {
		t.Error("Invalid must not be valid")
	}
}

func TestMakeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative rank should panic")
		}
	}()
	MakeIndex(-1, 0)
}

type elem struct {
	ID  int64
	Val float64
}

func TestExchangeBasic(t *testing.T) {
	const p = 4
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		// Each rank sends element i to rank i%p.
		items := make([]elem, 8)
		for i := range items {
			items[i] = elem{ID: int64(c.Rank()*100 + i)}
		}
		out := denseExchange(c, items, ToRank(func(i int) int { return i % p }))
		c.SetResult(out)
	})
	for r := 0; r < p; r++ {
		out := st.Values[r].([]elem)
		if len(out) != 8 { // 2 from each of 4 ranks
			t.Fatalf("rank %d received %d elements, want 8", r, len(out))
		}
		for _, e := range out {
			if int(e.ID%100)%p != r {
				t.Errorf("rank %d received foreign element %d", r, e.ID)
			}
		}
	}
}

func TestExchangeConservesMultiset(t *testing.T) {
	const p = 5
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]elem, p)
	id := int64(0)
	for r := range inputs {
		inputs[r] = make([]elem, 10+rng.Intn(20))
		for i := range inputs[r] {
			inputs[r][i] = elem{ID: id, Val: rng.Float64()}
			id++
		}
	}
	owner := make(map[int64]int)
	for r := range inputs {
		for _, e := range inputs[r] {
			owner[e.ID] = rng.Intn(p)
		}
	}
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		in := inputs[c.Rank()]
		out := denseExchange(c, in, ToRank(func(i int) int { return owner[in[i].ID] }))
		c.SetResult(out)
	})
	var got []int64
	for r := 0; r < p; r++ {
		for _, e := range st.Values[r].([]elem) {
			got = append(got, e.ID)
			if owner[e.ID] != r {
				t.Errorf("element %d delivered to %d, want %d", e.ID, r, owner[e.ID])
			}
		}
	}
	if int64(len(got)) != id {
		t.Fatalf("element count changed: %d -> %d", id, len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("lost element %d", i)
		}
	}
}

func TestExchangeDuplication(t *testing.T) {
	// Ghost-style duplication: element goes to its owner and a copy to the
	// next rank.
	const p = 3
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		items := []elem{{ID: int64(c.Rank())}}
		out := denseExchange(c, items, func(i int, dst []int) []int {
			return append(dst, c.Rank(), (c.Rank()+1)%p)
		})
		c.SetResult(len(out))
	})
	for r := 0; r < p; r++ {
		if st.Values[r].(int) != 2 {
			t.Errorf("rank %d has %d elements, want 2 (own + ghost)", r, st.Values[r].(int))
		}
	}
}

func TestExchangeDrop(t *testing.T) {
	const p = 2
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		items := []elem{{ID: 1}, {ID: 2}}
		out := denseExchange(c, items, func(i int, dst []int) []int {
			if i == 0 {
				return dst // dropped
			}
			return append(dst, 0)
		})
		c.SetResult(len(out))
	})
	if st.Values[0].(int) != 2 || st.Values[1].(int) != 0 {
		t.Errorf("drop semantics wrong: %v", st.Values)
	}
}

func TestExchangeNeighborhoodUsesP2P(t *testing.T) {
	const p = 8
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		g := vmpi.CartCreate(c, []int{2, 2, 2}, []bool{true, true, true})
		nbs := g.Neighbors(1)
		items := []elem{{ID: int64(c.Rank()*10 + 1)}, {ID: int64(c.Rank()*10 + 2)}}
		// Send one element to self, one to a neighbor.
		out, usedNbr := ExchangeNeighborhood(c, items, func(i int, dst []int) []int {
			if i == 0 {
				return append(dst, c.Rank())
			}
			return append(dst, nbs[0])
		}, nbs)
		if !usedNbr {
			t.Errorf("rank %d: fell back to all-to-all unexpectedly", c.Rank())
		}
		c.SetResult(out)
	})
	total := 0
	for r := 0; r < p; r++ {
		total += len(st.Values[r].([]elem))
	}
	if total != 2*p {
		t.Errorf("total elements %d, want %d", total, 2*p)
	}
}

func TestExchangeNeighborhoodFallback(t *testing.T) {
	// One rank targets a non-neighbor: all ranks must fall back and the
	// data must still arrive.
	const p = 27
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		g := vmpi.CartCreate(c, []int{3, 3, 3}, []bool{false, false, false})
		nbs := g.Neighbors(1)
		items := []elem{{ID: int64(c.Rank())}}
		target := c.Rank()
		if c.Rank() == 0 {
			target = 26 // opposite corner: not a radius-1 neighbor
		}
		out, usedNbr := ExchangeNeighborhood(c, items,
			ToRank(func(i int) int { return target }), nbs)
		if usedNbr {
			t.Errorf("rank %d: neighborhood path used despite out-of-range target", c.Rank())
		}
		c.SetResult(out)
	})
	if got := len(st.Values[26].([]elem)); got != 2 {
		t.Errorf("rank 26 has %d elements, want 2", got)
	}
	if got := len(st.Values[0].([]elem)); got != 0 {
		t.Errorf("rank 0 has %d elements, want 0", got)
	}
}

func TestExchangeNeighborhoodCheaperOnTorus(t *testing.T) {
	// On a torus, the neighborhood backend must beat the collective
	// backend for neighbor-only traffic — the mechanism of §IV-D (right).
	const p = 64
	prog := func(useNbr bool) float64 {
		st := vmpi.Run(vmpi.Config{Ranks: p, Model: netmodel.NewTorus(p)}, func(c *vmpi.Comm) {
			g := vmpi.CartCreate(c, []int{4, 4, 4}, []bool{true, true, true})
			nbs := g.Neighbors(1)
			items := make([]elem, 520)
			tf := ToRank(func(i int) int {
				if i < 500 {
					return c.Rank()
				}
				return nbs[i%len(nbs)]
			})
			if useNbr {
				ExchangeNeighborhood(c, items, tf, nbs)
			} else {
				denseExchange(c, items, tf)
			}
		})
		return st.MaxClock()
	}
	nbr := prog(true)
	a2a := prog(false)
	if nbr >= a2a {
		t.Errorf("neighborhood exchange (%g s) should beat all-to-all (%g s) on torus", nbr, a2a)
	}
}

func TestResortFloatsStride3(t *testing.T) {
	// 2 ranks; rank 0's particles moved to rank 1 positions and vice versa.
	st := vmpi.Run(vmpi.Config{Ranks: 2}, func(c *vmpi.Comm) {
		other := 1 - c.Rank()
		vals := make([]float64, 6) // 2 particles, stride 3
		for i := range vals {
			vals[i] = float64(c.Rank()*100 + i)
		}
		// Particle 0 stays home at pos 0; particle 1 goes to the other rank
		// at pos 1.
		indices := []Index{MakeIndex(c.Rank(), 0), MakeIndex(other, 1)}
		out := ResortFloats(c, vals, 3, indices, 2)
		c.SetResult(out)
	})
	r0 := st.Values[0].([]float64)
	r1 := st.Values[1].([]float64)
	// Rank 0 pos 0 = own particle 0 (vals 0,1,2); pos 1 = rank 1's particle
	// 1 (vals 103,104,105).
	want0 := []float64{0, 1, 2, 103, 104, 105}
	want1 := []float64{100, 101, 102, 3, 4, 5}
	for i := range want0 {
		if r0[i] != want0[i] || r1[i] != want1[i] {
			t.Fatalf("resort: r0=%v r1=%v", r0, r1)
		}
	}
}

func TestResortIntsRandomPermutation(t *testing.T) {
	// Random global permutation across 4 ranks: every value must land at
	// its designated (rank, pos).
	const p = 4
	const perRank = 30
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(p * perRank) // global old index -> global new index
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		vals := make([]int64, perRank)
		indices := make([]Index, perRank)
		for i := 0; i < perRank; i++ {
			g := c.Rank()*perRank + i
			vals[i] = int64(g)
			n := perm[g]
			indices[i] = MakeIndex(n/perRank, n%perRank)
		}
		c.SetResult(ResortInts(c, vals, 1, indices, perRank))
	})
	for r := 0; r < p; r++ {
		out := st.Values[r].([]int64)
		for i, v := range out {
			if perm[v] != r*perRank+i {
				t.Fatalf("value %d at rank %d pos %d, want new index %d", v, r, i, perm[v])
			}
		}
	}
}

func TestResortDropsInvalid(t *testing.T) {
	st := vmpi.Run(vmpi.Config{Ranks: 2}, func(c *vmpi.Comm) {
		// Rank-dependent data, symmetric collective call.
		var (
			vals    []float64
			indices []Index
			outLen  = 1
		)
		if c.Rank() == 0 {
			vals = []float64{1, 2, 3}
			indices = []Index{MakeIndex(0, 1), Invalid, MakeIndex(1, 0)}
			outLen = 2
		}
		c.SetResult(ResortFloats(c, vals, 1, indices, outLen))
	})
	r0 := st.Values[0].([]float64)
	r1 := st.Values[1].([]float64)
	if r0[1] != 1 {
		t.Errorf("r0 = %v", r0)
	}
	if r1[0] != 3 {
		t.Errorf("r1 = %v", r1)
	}
	if r0[0] != 0 {
		t.Errorf("unwritten slot should stay zero, got %v", r0[0])
	}
}

func TestInvertIndicesInvolution(t *testing.T) {
	// Build a random redistribution: every global particle gets a distinct
	// (rank, pos) in the new layout; origin[] describes the inverse view.
	const p = 3
	const perRank = 20
	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(p * perRank)
	// origin[newGlobal] = old global position
	origin := make([]Index, p*perRank)
	for old, new := range perm {
		origin[new] = MakeIndex(old/perRank, old%perRank)
	}
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		myOrigin := make([]Index, perRank)
		copy(myOrigin, origin[c.Rank()*perRank:(c.Rank()+1)*perRank])
		resort := InvertIndices(c, myOrigin, perRank)
		// Inverting again lands back in the changed layout and must
		// reproduce the origin view (involution).
		back := InvertIndices(c, resort, perRank)
		c.SetResult([3][]Index{myOrigin, resort, back})
	})
	for r := 0; r < p; r++ {
		triple := st.Values[r].([3][]Index)
		myOrigin, resort, back := triple[0], triple[1], triple[2]
		for i := 0; i < perRank; i++ {
			old := r*perRank + i
			new := perm[old]
			want := MakeIndex(new/perRank, new%perRank)
			if resort[i] != want {
				t.Fatalf("rank %d: resort[%d] = %v, want %v", r, i, resort[i], want)
			}
			if back[i] != myOrigin[i] {
				t.Fatalf("rank %d: back[%d] = (%d,%d), want origin (%d,%d)",
					r, i, back[i].Rank(), back[i].Pos(), myOrigin[i].Rank(), myOrigin[i].Pos())
			}
		}
	}
}

func TestResortVsManualGather(t *testing.T) {
	// Property: resorting values then gathering equals permuting the
	// gathered values directly.
	f := func(seed int64) bool {
		const p = 3
		const perRank = 8
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(p * perRank)
		vals := make([]int64, p*perRank)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
			myVals := make([]int64, perRank)
			idx := make([]Index, perRank)
			for i := 0; i < perRank; i++ {
				g := c.Rank()*perRank + i
				myVals[i] = vals[g]
				idx[i] = MakeIndex(perm[g]/perRank, perm[g]%perRank)
			}
			c.SetResult(ResortInts(c, myVals, 1, idx, perRank))
		})
		for r := 0; r < p; r++ {
			out := st.Values[r].([]int64)
			for i, v := range out {
				// Find the old global index mapping to (r, i).
				g := -1
				for old, new := range perm {
					if new == r*perRank+i {
						g = old
					}
				}
				if vals[g] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestResortLengthMismatchPanics(t *testing.T) {
	vmpi.Run(vmpi.Config{Ranks: 1}, func(c *vmpi.Comm) {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch should panic")
			}
		}()
		ResortFloats(c, []float64{1, 2, 3}, 2, []Index{MakeIndex(0, 0)}, 1)
	})
}

func TestResortDoubleWritePanics(t *testing.T) {
	vmpi.Run(vmpi.Config{Ranks: 1}, func(c *vmpi.Comm) {
		defer func() {
			if recover() == nil {
				t.Error("duplicate target position should panic")
			}
		}()
		ResortFloats(c, []float64{1, 2}, 1,
			[]Index{MakeIndex(0, 0), MakeIndex(0, 0)}, 2)
	})
}
