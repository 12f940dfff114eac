package fmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/particle"
	"repro/internal/refsolve"
)

// TestSolveSerialOrthorhombicBox checks the engine on a non-cubic
// orthorhombic box with open boundaries: the per-dimension cell sizes must
// be handled correctly throughout P2M/M2L/L2P and the near field.
//
// Note the documented limitation: with a fixed one-box neighborhood, the
// multipole separation ratio degrades with the box aspect ratio (here
// 12:8:5, ratio ≈ 0.76 for the worst interaction pair), so accuracy on
// anisotropic boxes is in the percent class rather than the cubic case's
// 1e-3. The paper's systems are cubic; production use should keep cells
// near-cubic.
func TestSolveSerialOrthorhombicBox(t *testing.T) {
	box := particle.Box{}
	box.Base[0][0] = 12
	box.Base[1][1] = 8
	box.Base[2][2] = 5
	rng := rand.New(rand.NewSource(9))
	const n = 500
	s := particle.NewSystem(box, n)
	for i := 0; i < n; i++ {
		s.Pos[3*i] = rng.Float64() * 12
		s.Pos[3*i+1] = rng.Float64() * 8
		s.Pos[3*i+2] = rng.Float64() * 5
		if i%2 == 0 {
			s.Q[i] = 1
		} else {
			s.Q[i] = -1
		}
	}
	pot := make([]float64, n)
	field := make([]float64, 3*n)
	SolveSerial(NewTables(7), box, 3, s.Pos, s.Q, pot, field)

	wantPot := make([]float64, n)
	wantField := make([]float64, 3*n)
	refsolve.DirectOpen(s.Pos, s.Q, wantPot, wantField)

	var rms, scale float64
	for i := 0; i < n; i++ {
		rms += (pot[i] - wantPot[i]) * (pot[i] - wantPot[i])
		scale += wantPot[i] * wantPot[i]
	}
	// Anisotropic cells stretch the separation ratio, so the error bound
	// is far looser than the cubic case (see the doc comment above).
	if e := math.Sqrt(rms / scale); e > 8e-2 {
		t.Errorf("rms potential error %g on orthorhombic box", e)
	}
	u := refsolve.Energy(s.Q, pot)
	wantU := refsolve.Energy(s.Q, wantPot)
	if relErr(u, wantU) > 4e-2 {
		t.Errorf("energy %g, want %g", u, wantU)
	}
	// The expansion still converges: a higher order must not be worse.
	pot6 := make([]float64, n)
	f6 := make([]float64, 3*n)
	SolveSerial(NewTables(4), box, 3, s.Pos, s.Q, pot6, f6)
	var rms4 float64
	for i := 0; i < n; i++ {
		rms4 += (pot6[i] - wantPot[i]) * (pot6[i] - wantPot[i])
	}
	if rms4 < rms {
		t.Errorf("order 7 (rms² %g) should beat order 4 (rms² %g)", rms, rms4)
	}
}

// TestEngineChargeConservationInMultipoles: the monopole moment of every
// box equals the total charge it contains, and M2M preserves it exactly.
func TestEngineChargeConservation(t *testing.T) {
	s := particle.UniformRandom(300, 8, false, 11)
	tab := NewTables(4)
	pot := make([]float64, s.N)
	field := make([]float64, 3*s.N)
	// Build an engine through SolveSerial's path by hand: sort by key.
	SolveSerial(tab, s.Box, 3, s.Pos, s.Q, pot, field) // ensures no panic
	// Direct check on a fresh engine.
	e := &engine{Tab: tab, Box: s.Box, Level: 3}
	keys := make([]uint64, s.N)
	ord := make([]int, s.N)
	for i := 0; i < s.N; i++ {
		keys[i] = e.keyOf(s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2])
		ord[i] = i
	}
	// sort by key
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && keys[ord[j]] < keys[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	pos := make([]float64, 3*s.N)
	q := make([]float64, s.N)
	sk := make([]uint64, s.N)
	for out, in := range ord {
		pos[3*out], pos[3*out+1], pos[3*out+2] = s.Pos[3*in], s.Pos[3*in+1], s.Pos[3*in+2]
		q[out] = s.Q[in]
		sk[out] = keys[in]
	}
	eng := newEngine(tab, s.Box, 3, pos, q, sk)
	eng.upward()
	// Monopole (index 0) of the root-level boxes sums to the total charge.
	total := 0.0
	for _, M := range eng.M[1] {
		total += M[0]
	}
	want := s.TotalCharge()
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("level-1 monopole sum %g, want total charge %g", total, want)
	}
	// Each leaf monopole equals its box charge.
	for _, lr := range eng.leaves {
		sum := 0.0
		for i := lr.lo; i < lr.hi; i++ {
			sum += q[i]
		}
		if math.Abs(eng.M[3][lr.key][0]-sum) > 1e-12 {
			t.Errorf("leaf %d monopole %g, want %g", lr.key, eng.M[3][lr.key][0], sum)
		}
	}
}
