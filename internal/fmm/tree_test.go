package fmm

import (
	"math"
	"testing"

	"repro/internal/particle"
	"repro/internal/refsolve"
)

func TestSolveSerialOpenVsDirect(t *testing.T) {
	s := particle.UniformRandom(600, 10, false, 3)
	pot := make([]float64, s.N)
	field := make([]float64, 3*s.N)
	SolveSerial(NewTables(7), s.Box, 3, s.Pos, s.Q, pot, field)

	wantPot := make([]float64, s.N)
	wantField := make([]float64, 3*s.N)
	refsolve.DirectOpen(s.Pos, s.Q, wantPot, wantField)

	// The paper's solvers target a relative total-energy error below 1e-3
	// (§IV-A); hold the reproduction to the same class.
	u := refsolve.Energy(s.Q, pot)
	wantU := refsolve.Energy(s.Q, wantPot)
	if relErr(u, wantU) > 1e-3 {
		t.Errorf("energy %g, want %g (rel %g)", u, wantU, relErr(u, wantU))
	}
	// Per-particle potential error.
	var rms, scale float64
	for i := 0; i < s.N; i++ {
		rms += (pot[i] - wantPot[i]) * (pot[i] - wantPot[i])
		scale += wantPot[i] * wantPot[i]
	}
	if math.Sqrt(rms/scale) > 1e-3 {
		t.Errorf("rms potential error %g", math.Sqrt(rms/scale))
	}
	// Field error.
	rms, scale = 0, 0
	for i := 0; i < 3*s.N; i++ {
		rms += (field[i] - wantField[i]) * (field[i] - wantField[i])
		scale += wantField[i] * wantField[i]
	}
	if math.Sqrt(rms/scale) > 3e-3 {
		t.Errorf("rms field error %g", math.Sqrt(rms/scale))
	}
}

func TestSolveSerialAccuracyImprovesWithOrder(t *testing.T) {
	s := particle.UniformRandom(300, 8, false, 5)
	wantPot := make([]float64, s.N)
	wantField := make([]float64, 3*s.N)
	refsolve.DirectOpen(s.Pos, s.Q, wantPot, wantField)
	var prev float64 = math.Inf(1)
	for _, p := range []int{2, 4, 6} {
		pot := make([]float64, s.N)
		field := make([]float64, 3*s.N)
		SolveSerial(NewTables(p), s.Box, 3, s.Pos, s.Q, pot, field)
		var rms, scale float64
		for i := 0; i < s.N; i++ {
			rms += (pot[i] - wantPot[i]) * (pot[i] - wantPot[i])
			scale += wantPot[i] * wantPot[i]
		}
		err := math.Sqrt(rms / scale)
		if err > prev {
			t.Errorf("P=%d: error %g did not improve on %g", p, err, prev)
		}
		prev = err
	}
}

func TestSolveSerialLevelInvariance(t *testing.T) {
	// The result must be (nearly) independent of the tree depth.
	s := particle.UniformRandom(400, 6, false, 7)
	potA := make([]float64, s.N)
	fieldA := make([]float64, 3*s.N)
	SolveSerial(NewTables(7), s.Box, 2, s.Pos, s.Q, potA, fieldA)
	potB := make([]float64, s.N)
	fieldB := make([]float64, 3*s.N)
	SolveSerial(NewTables(7), s.Box, 3, s.Pos, s.Q, potB, fieldB)
	var rms, scale float64
	for i := 0; i < s.N; i++ {
		rms += (potA[i] - potB[i]) * (potA[i] - potB[i])
		scale += potB[i] * potB[i]
	}
	if math.Sqrt(rms/scale) > 2e-3 {
		t.Errorf("rms potential difference across levels: %g", math.Sqrt(rms/scale))
	}
}

func TestSolveSerialPeriodicVsEwald(t *testing.T) {
	// The periodic mode implements the minimum-image approximation, so the
	// comparison with true Ewald summation is held to a loose tolerance
	// (documented substitution).
	s := particle.SilicaMelt(500, 10, true, 11)
	pot := make([]float64, s.N)
	field := make([]float64, 3*s.N)
	SolveSerial(NewTables(7), s.Box, 3, s.Pos, s.Q, pot, field)

	e := refsolve.NewEwald(s.Box, 1e-6)
	wantPot := make([]float64, s.N)
	wantField := make([]float64, 3*s.N)
	e.Compute(s.Pos, s.Q, wantPot, wantField)

	u := refsolve.Energy(s.Q, pot)
	wantU := refsolve.Energy(s.Q, wantPot)
	if relErr(u, wantU) > 5e-2 {
		t.Errorf("periodic energy %g vs Ewald %g (rel %g)", u, wantU, relErr(u, wantU))
	}
}

func TestEngineInteractionListSizes(t *testing.T) {
	s := particle.UniformRandom(10, 4, false, 1)
	e := &engine{Tab: NewTables(2), Box: s.Box, Level: 3, Periodic: false}
	// Interior box at level 3 (8 per dim): |IL| ≤ 189 and ≥ 27 for
	// interior boxes; must never include the box itself or its neighbors.
	key := e.keyOf(2.1, 2.1, 2.1)
	il := e.interactionList(nil, 3, key)
	if len(il) == 0 || len(il) > 189 {
		t.Fatalf("interaction list size %d", len(il))
	}
	nb := map[uint64]bool{}
	for _, k := range zorderNeighbors(e, key) {
		nb[k] = true
	}
	for _, k := range il {
		if nb[k] {
			t.Fatalf("interaction list contains neighbor %d", k)
		}
		if k == key {
			t.Fatal("interaction list contains the box itself")
		}
	}
}

func zorderNeighbors(e *engine, key uint64) []uint64 {
	return e.InteractionListNeighborsForTest(key)
}

func TestEngineKeysSortedPanic(t *testing.T) {
	s := particle.UniformRandom(4, 4, false, 2)
	keys := []uint64{5, 3, 4, 1}
	defer func() {
		if recover() == nil {
			t.Error("unsorted keys should panic")
		}
	}()
	newEngine(NewTables(2), s.Box, 3, s.Pos, s.Q, keys)
}
