package fmm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/particle"
)

// sameBits reports bit equality; NaNs (reachable only from fuzzed
// overflowing inputs) compare equal regardless of payload, which depends on
// the operand order the compiler picks for commutative operations.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func compareBits(t *testing.T, op string, p int, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s P=%d coefficient %d: got %x (%g), reference %x (%g)",
				op, p, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkOperators runs every translation operator of order p through the
// dense tables and through the map-based reference on the same operands and
// demands bit-identical results. Accumulators start from random (non-zero)
// contents so the "+=" of each operator is covered too.
func checkOperators(t *testing.T, p int, seed int64, dx, dy, dz float64) {
	t.Helper()
	tab, ref := NewTables(p), newRefTables(p)
	nc := tab.NCoef()
	if nc != ref.NCoef() {
		t.Fatalf("P=%d: NCoef %d vs reference %d", p, nc, ref.NCoef())
	}
	rng := rand.New(rand.NewSource(seed))
	random := func() []float64 {
		v := make([]float64, nc)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	// pair returns an accumulator twice: one copy per implementation.
	pair := func() (a, b []float64) {
		a = random()
		return a, append([]float64(nil), a...)
	}
	src := random()

	got, want := pair()
	tab.p2m(0.75, dx, dy, dz, got)
	ref.P2M(0.75, dx, dy, dz, want)
	compareBits(t, "P2M", p, got, want)

	got, want = pair()
	tab.m2m(src, dx, dy, dz, got)
	ref.M2M(src, dx, dy, dz, want)
	compareBits(t, "M2M", p, got, want)

	got, want = pair()
	tab.l2l(src, dx, dy, dz, got)
	ref.L2L(src, dx, dy, dz, want)
	compareBits(t, "L2L", p, got, want)

	gp, gx, gy, gz := tab.l2p(src, dx, dy, dz)
	wp, wx, wy, wz := ref.L2P(src, dx, dy, dz)
	compareBits(t, "L2P", p, []float64{gp, gx, gy, gz}, []float64{wp, wx, wy, wz})

	if r2 := dx*dx + dy*dy + dz*dz; r2 == 0 || math.IsInf(r2, 0) {
		return // Deriv panics at zero displacement; 1/r² is 0 at overflow
	}
	bGot, bWant := make([]float64, nc), make([]float64, nc)
	tab.Deriv(dx, dy, dz, bGot)
	ref.Deriv(dx, dy, dz, bWant)
	compareBits(t, "Deriv", p, bGot, bWant)

	got, want = pair()
	tab.M2L(src, bWant, got)
	ref.M2L(src, bWant, want)
	compareBits(t, "M2L", p, got, want)

	// The batched M2L: four sources and four accumulators on one tensor.
	var srcs, gots, wants [4][]float64
	for i := range srcs {
		srcs[i] = random()
		gots[i], wants[i] = pair()
		ref.M2L(srcs[i], bWant, wants[i])
	}
	tab.m2l4(bWant, srcs[0], srcs[1], srcs[2], srcs[3], gots[0], gots[1], gots[2], gots[3])
	for i := range gots {
		compareBits(t, fmt.Sprintf("m2l4 target %d", i), p, gots[i], wants[i])
	}
	// M2L and m2l4 again on special operands: sources, tensor and
	// accumulators with NaN payloads, infinities, signed zeros and
	// subnormals. The rows of weight 1, whose multiply m2l4 drops, meet
	// every one of them.
	bSpecial, srcSpecial := withSpecials(rng, bWant), withSpecials(rng, src)
	got = withSpecials(rng, random())
	want = append([]float64(nil), got...)
	tab.M2L(srcSpecial, bSpecial, got)
	ref.M2L(srcSpecial, bSpecial, want)
	compareBits(t, "M2L on special values", p, got, want)
	for i := range srcs {
		srcs[i] = withSpecials(rng, srcs[i])
		gots[i] = withSpecials(rng, gots[i])
		wants[i] = append(wants[i][:0], gots[i]...)
		ref.M2L(srcs[i], bSpecial, wants[i])
	}
	tab.m2l4(bSpecial, srcs[0], srcs[1], srcs[2], srcs[3], gots[0], gots[1], gots[2], gots[3])
	for i := range gots {
		compareBits(t, fmt.Sprintf("m2l4 on special values, target %d", i), p, gots[i], wants[i])
	}
	if tab.m2lOps() != len(ref.m2l) {
		t.Fatalf("P=%d: M2LOps %d, reference pair list %d", p, tab.m2lOps(), len(ref.m2l))
	}
}

// specialValues are the operands IEEE arithmetic treats apart: quiet and
// signalling NaNs with payloads, infinities, signed zeros, and the least,
// a middle and the greatest subnormal.
var specialValues = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0001), // quiet NaN, payload 1
	math.Float64frombits(0xfff8_dead_beef_0000), // negative quiet NaN
	math.Float64frombits(0x7ff0_0000_0000_0abc), // signalling NaN
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x0000_8000_0000_0000),
	math.Float64frombits(0x000f_ffff_ffff_ffff),
}

// withSpecials returns a copy of v with about one entry in four replaced
// by one of specialValues.
func withSpecials(rng *rand.Rand, v []float64) []float64 {
	out := append([]float64(nil), v...)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = specialValues[rng.Intn(len(specialValues))]
		}
	}
	return out
}

func TestOperatorsMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for p := 0; p <= 8; p++ {
		for trial := 0; trial < 8; trial++ {
			checkOperators(t, p, rng.Int63(), 3*rng.NormFloat64(), 3*rng.NormFloat64(), 3*rng.NormFloat64())
		}
		// Axis-aligned and sign-mixed displacements exercise the zero
		// operands (and signed zeros) of the power table and the recurrence.
		checkOperators(t, p, 1, 2, 0, 0)
		checkOperators(t, p, 2, 0, -1.5, 0)
		checkOperators(t, p, 3, 0, 0, 0.25)
		checkOperators(t, p, 4, -1, 1, -1)
	}
	// One order past the stack-resident power table.
	checkOperators(t, 9, 5, 0.3, -1.7, 2.9)
}

// FuzzOperatorsMatchReference is the differential fuzz target of the
// operator tables: any order 0…9, any finite displacement, random moments.
func FuzzOperatorsMatchReference(f *testing.F) {
	f.Add(uint8(6), int64(1), 2.0, 1.0, 0.5)
	f.Add(uint8(0), int64(2), -1.0, 0.0, 0.0)
	f.Add(uint8(8), int64(3), 1e-3, -4.0, 7.5)
	f.Add(uint8(9), int64(4), 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, order uint8, seed int64, dx, dy, dz float64) {
		for _, v := range []float64{dx, dy, dz} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite displacement")
			}
		}
		checkOperators(t, int(order%10), seed, dx, dy, dz)
	})
}

// TestInteractionListOrderUnchanged pins the map-free interaction list to
// the map-based one element for element: the list order is the order in
// which downward accumulates M2L contributions into a local expansion.
func TestInteractionListOrderUnchanged(t *testing.T) {
	for _, periodic := range []bool{false, true} {
		for l := 1; l <= 4; l++ {
			e := &engine{Level: 4, Periodic: periodic}
			for key := uint64(0); key < 1<<uint(3*l); key++ {
				got := e.interactionList(nil, l, key)
				want := refInteractionList(l, key, periodic)
				if len(got) != len(want) {
					t.Fatalf("periodic=%v level %d key %d: %d entries, reference %d", periodic, l, key, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("periodic=%v level %d key %d: entry %d is %d, reference %d", periodic, l, key, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// benchOperands returns order-6 tables (the order accuracy 1e-3 selects)
// with a source expansion, a derivative tensor and a zeroed accumulator.
func benchOperands() (tab *Tables, src, b, acc []float64) {
	tab = NewTables(6)
	nc := tab.NCoef()
	src, b, acc = make([]float64, nc), make([]float64, nc), make([]float64, nc)
	for i := range src {
		src[i] = 1 / float64(i+1)
	}
	tab.Deriv(2, 1, 0.5, b)
	return tab, src, b, acc
}

func BenchmarkM2L(b *testing.B) {
	tab, src, d, acc := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.M2L(src, d, acc)
	}
}

// BenchmarkM2L4 times one batched M2L: four targets on one tensor, so
// ns/op ÷ (4 · M2LOps) is its cost per term and target.
func BenchmarkM2L4(b *testing.B) {
	tab, src, d, _ := benchOperands()
	var ls [4][]float64
	for i := range ls {
		ls[i] = make([]float64, tab.NCoef())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.m2l4(d, src, src, src, src, ls[0], ls[1], ls[2], ls[3])
	}
}

func BenchmarkDeriv(b *testing.B) {
	tab, _, d, _ := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Deriv(2, 1, 0.5, d)
	}
}

func BenchmarkM2M(b *testing.B) {
	tab, src, _, acc := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.m2m(src, 0.5, -0.5, 0.5, acc)
	}
}

func BenchmarkL2L(b *testing.B) {
	tab, src, _, acc := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.l2l(src, 0.5, -0.5, 0.5, acc)
	}
}

var benchSink float64

func BenchmarkL2P(b *testing.B) {
	tab, src, _, _ := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pot, _, _, _ := tab.l2p(src, 0.1, -0.2, 0.3)
		benchSink += pot
	}
}

// sortedEngine builds an order-p engine at the given level over the
// particles of s whose leaf-key rank lies in [lo, hi) of the key-sorted
// order: hi − lo < s.N is an engine that owns only part of the key range.
func sortedEngine(s *particle.System, p, level, lo, hi int) *engine {
	ord, keys := keyOrder(s, level)
	ord = ord[lo:hi]
	pos, q, skeys := make([]float64, 3*len(ord)), make([]float64, len(ord)), make([]uint64, len(ord))
	for out, in := range ord {
		copy(pos[3*out:3*out+3], s.Pos[3*in:3*in+3])
		q[out], skeys[out] = s.Q[in], keys[in]
	}
	return newEngine(NewTables(p), s.Box, level, pos, q, skeys)
}

// keyOrder returns the leaf keys of s's particles at the given level and
// their indices stably sorted by key.
func keyOrder(s *particle.System, level int) (ord []int, keys []uint64) {
	e := &engine{Box: s.Box, Level: level}
	ord = make([]int, s.N)
	keys = make([]uint64, s.N)
	for i := range ord {
		ord[i] = i
		keys[i] = e.keyOf(s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2])
	}
	sort.SliceStable(ord, func(a, b int) bool { return keys[ord[a]] < keys[ord[b]] })
	return ord, keys
}

// TestDownwardMatchesPerTarget runs the octant-batched downward and the
// per-target sweep it replaced (refDownward) on the same multipole tables
// and demands bit-identical local expansions at every level and a
// bit-identical CostSeconds. Random remote multipoles fill most boxes the
// engine does not own and leave the rest empty (nil M), so list positions
// take both the batched and the per-target path; engines owning part of
// the key range leave octant groups that are not multiples of the batch.
func TestDownwardMatchesPerTarget(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, periodic := range []bool{true, false} {
		for level := 2; level <= 4; level++ {
			for _, p := range []int{2, 6, 8} {
				for _, part := range []bool{false, true} {
					name := fmt.Sprintf("periodic=%v/level=%d/P=%d/part=%v", periodic, level, p, part)
					s := particle.UniformRandom(64, 10, periodic, int64(level*10+p))
					lo, hi := 0, s.N
					if part {
						lo, hi = s.N/3, 2*s.N/3+1
					}
					e := sortedEngine(s, p, level, lo, hi)
					e.upward()
					rng := rand.New(rand.NewSource(int64(p)))
					nc := e.Tab.NCoef()
					coef := make([]float64, nc)
					for l := 1; l <= level; l++ {
						for key := uint64(0); key < 1<<uint(3*l); key++ {
							if rng.Float64() < 0.1 {
								continue
							}
							for i := range coef {
								coef[i] = rng.NormFloat64()
							}
							e.addRemoteMultipole(l, key, coef)
						}
					}
					cost0 := e.CostSeconds
					refDownward(e)
					want, wantCost := e.L, e.CostSeconds
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						e.L, e.CostSeconds = make([]map[uint64][]float64, level+1), cost0
						for l := range e.L {
							e.L[l] = map[uint64][]float64{}
						}
						e.downward()
						if !sameBits(e.CostSeconds, wantCost) {
							t.Fatalf("%s GOMAXPROCS=%d: CostSeconds %x, per-target %x", name, procs, math.Float64bits(e.CostSeconds), math.Float64bits(wantCost))
						}
						for l := 1; l <= level; l++ {
							if len(e.L[l]) != len(want[l]) {
								t.Fatalf("%s GOMAXPROCS=%d level %d: %d local expansions, per-target %d", name, procs, l, len(e.L[l]), len(want[l]))
							}
							for key, w := range want[l] {
								compareBits(t, fmt.Sprintf("%s GOMAXPROCS=%d level %d key %d: Downward", name, procs, l, key), p, e.L[l][key], w)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkDownward times the M2L/L2L sweep of one periodic silica-melt
// engine at order 6: level 2 with 750 particles (the tree of the bench
// probe fmm.solve_serial_750), and level 3 with 6000 particles (the tree
// shape the md-fmm workload's solves run).
func BenchmarkDownward(b *testing.B) {
	for _, c := range []struct{ n, level int }{{750, 2}, {6000, 3}} {
		b.Run(fmt.Sprintf("level=%d/n=%d", c.level, c.n), func(b *testing.B) {
			s := particle.SilicaMelt(c.n, 2.6567*math.Cbrt(float64(c.n)), true, 42)
			e := sortedEngine(s, 6, c.level, 0, s.N)
			e.upward()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.downward()
			}
		})
	}
}

// BenchmarkEvalNearField times the near field of one rank of the md-fmm
// workload's tree: the first 750 in key order of the 6000-particle periodic
// silica melt at level 3, with the rest of their neighborhood as ghosts.
func BenchmarkEvalNearField(b *testing.B) {
	const n = 6000
	s := particle.SilicaMelt(n, 2.6567*math.Cbrt(n), true, 42)
	e := ghostedEngine(s, 6, 3, 0, n/8)
	pot, field := make([]float64, len(e.q)), make([]float64, 3*len(e.q))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.evalNearField(pot, field)
	}
}
