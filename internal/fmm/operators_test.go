package fmm

import (
	"math"
	"math/rand"
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
			t.Fatalf("%s P=%d coefficient %d: got %x (%g), map reference %x (%g)",
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
	tab.P2M(0.75, dx, dy, dz, got)
	ref.P2M(0.75, dx, dy, dz, want)
	compareBits(t, "P2M", p, got, want)

	got, want = pair()
	tab.M2M(src, dx, dy, dz, got)
	ref.M2M(src, dx, dy, dz, want)
	compareBits(t, "M2M", p, got, want)

	got, want = pair()
	tab.L2L(src, dx, dy, dz, got)
	ref.L2L(src, dx, dy, dz, want)
	compareBits(t, "L2L", p, got, want)

	gp, gx, gy, gz := tab.L2P(src, dx, dy, dz)
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
	if tab.M2LOps() != len(ref.m2l) {
		t.Fatalf("P=%d: M2LOps %d, reference pair list %d", p, tab.M2LOps(), len(ref.m2l))
	}
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
// which Downward accumulates M2L contributions into a local expansion.
func TestInteractionListOrderUnchanged(t *testing.T) {
	for _, periodic := range []bool{false, true} {
		for l := 1; l <= 4; l++ {
			e := &Engine{Level: 4, Periodic: periodic}
			for key := uint64(0); key < 1<<uint(3*l); key++ {
				got := e.InteractionList(l, key)
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
		tab.M2M(src, 0.5, -0.5, 0.5, acc)
	}
}

func BenchmarkL2L(b *testing.B) {
	tab, src, _, acc := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.L2L(src, 0.5, -0.5, 0.5, acc)
	}
}

var benchSink float64

func BenchmarkL2P(b *testing.B) {
	tab, src, _, _ := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pot, _, _, _ := tab.L2P(src, 0.1, -0.2, 0.3)
		benchSink += pot
	}
}

// BenchmarkDownward times the M2L/L2L sweep of one 750-particle periodic
// level-2 engine (the tree of the bench probe fmm.solve_serial_750).
func BenchmarkDownward(b *testing.B) {
	s := particle.SilicaMelt(750, 2.6567*math.Cbrt(750), true, 42)
	e := &Engine{Box: s.Box, Level: 2}
	ord := make([]int, s.N)
	keys := make([]uint64, s.N)
	for i := range ord {
		ord[i] = i
		keys[i] = e.KeyOf(s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2])
	}
	sort.SliceStable(ord, func(a, b int) bool { return keys[ord[a]] < keys[ord[b]] })
	pos, q, skeys := make([]float64, 3*s.N), make([]float64, s.N), make([]uint64, s.N)
	for out, in := range ord {
		copy(pos[3*out:3*out+3], s.Pos[3*in:3*in+3])
		q[out], skeys[out] = s.Q[in], keys[in]
	}
	e = NewEngine(NewTables(6), s.Box, 2, pos, q, skeys)
	e.Upward()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Downward()
	}
}
