package pnfft

import (
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/particle"
	"repro/internal/redist"
	"repro/internal/refsolve"
	"repro/internal/vmpi"
)

func TestSplineWeightsPartitionOfUnity(t *testing.T) {
	for _, order := range []int{2, 3} {
		w := make([]float64, order)
		for u := -3.0; u < 3.0; u += 0.0137 {
			splineWeights(order, u, w)
			sum := 0.0
			for _, v := range w {
				sum += v
				if v < -1e-12 {
					t.Fatalf("order %d u %g: negative weight %g", order, u, v)
				}
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("order %d u %g: weights sum to %g", order, u, sum)
			}
		}
	}
}

func TestSplineWeightsCentering(t *testing.T) {
	w := make([]float64, 3)
	// A particle exactly on a mesh point gets full weight there.
	i0 := splineWeights(3, 5.0, w)
	if i0 != 4 {
		t.Fatalf("i0 = %d, want 4", i0)
	}
	if math.Abs(w[1]-0.75) > 1e-12 || math.Abs(w[0]-0.125) > 1e-12 {
		t.Errorf("TSC weights at mesh point: %v", w)
	}
	w2 := make([]float64, 2)
	i0 = splineWeights(2, 5.0, w2)
	if i0 != 5 || w2[0] != 1 || w2[1] != 0 {
		t.Errorf("CIC weights at mesh point: i0=%d w=%v", i0, w2)
	}
}

func TestSignedMode(t *testing.T) {
	cases := [][3]int{{0, 8, 0}, {1, 8, 1}, {4, 8, 4}, {5, 8, -3}, {7, 8, -1}}
	for _, c := range cases {
		if got := signedMode(c[0], c[1]); got != c[2] {
			t.Errorf("signedMode(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestInfluenceProperties(t *testing.T) {
	if influence(0, 0, 0, 32, 10, 1, 3) != 0 {
		t.Error("zero mode must vanish")
	}
	if influence(16, 0, 0, 32, 10, 1, 3) != 0 {
		t.Error("Nyquist mode must vanish")
	}
	// Symmetric and decaying.
	a := influence(1, 2, 3, 32, 10, 1, 3)
	b := influence(-1, -2, -3, 32, 10, 1, 3)
	if math.Abs(a-b) > 1e-15 {
		t.Errorf("influence not symmetric: %g vs %g", a, b)
	}
	far := influence(10, 10, 10, 64, 10, 1, 3)
	if far >= a {
		t.Errorf("influence should decay with |k|: %g vs %g", far, a)
	}
}

// runSolver executes one P2NFFT run over the system and collects global
// potentials/fields (method A keeps the input order, so reassembly uses the
// deterministic distribution).
func runSolver(t *testing.T, s *particle.System, ranks int, dist particle.Dist,
	resort bool) ([]api.Output, *vmpi.Stats) {
	t.Helper()
	st := vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, dist, 99)
		sv := New(c, s.Box, 1e-3)
		in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1, Resort: resort}
		if err := sv.Tune(in); err != nil {
			t.Errorf("tune: %v", err)
		}
		out, err := sv.Run(in)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		c.SetResult(out)
	})
	outs := make([]api.Output, ranks)
	for r, v := range st.Values {
		outs[r] = v.(api.Output)
	}
	return outs, st
}

func collect(s *particle.System, outs []api.Output, pot, field []float64) {
	type key [3]float64
	idx := make(map[key]int, s.N)
	for i := 0; i < s.N; i++ {
		idx[key{s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2]}] = i
	}
	for _, o := range outs {
		for i := 0; i < o.N; i++ {
			g, ok := idx[key{o.Pos[3*i], o.Pos[3*i+1], o.Pos[3*i+2]}]
			if !ok {
				panic("collect: unknown position")
			}
			pot[g] = o.Pot[i]
			field[3*g] = o.Field[3*i]
			field[3*g+1] = o.Field[3*i+1]
			field[3*g+2] = o.Field[3*i+2]
		}
	}
}

func TestP2NFFTVsEwald(t *testing.T) {
	s := particle.SilicaMelt(400, 10, true, 17)
	outs, _ := runSolver(t, s, 4, particle.DistRandom, false)
	pot := make([]float64, s.N)
	field := make([]float64, 3*s.N)
	collect(s, outs, pot, field)

	e := refsolve.NewEwald(s.Box, 1e-7)
	wantPot := make([]float64, s.N)
	wantField := make([]float64, 3*s.N)
	e.Compute(s.Pos, s.Q, wantPot, wantField)

	u := refsolve.Energy(s.Q, pot)
	wantU := refsolve.Energy(s.Q, wantPot)
	if relErr(u, wantU) > 1e-3 {
		t.Errorf("energy %g vs Ewald %g (rel %g)", u, wantU, relErr(u, wantU))
	}
	// RMS field error relative to RMS field magnitude.
	var rms, scale float64
	for i := range field {
		rms += (field[i] - wantField[i]) * (field[i] - wantField[i])
		scale += wantField[i] * wantField[i]
	}
	if math.Sqrt(rms/scale) > 5e-3 {
		t.Errorf("rms field error %g", math.Sqrt(rms/scale))
	}
}

func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	s := math.Abs(want)
	if s < 1e-12 {
		s = 1e-12
	}
	return d / s
}

func TestP2NFFTRankInvariance(t *testing.T) {
	// The same system must yield the same physics on 1, 2, and 8 ranks.
	s := particle.SilicaMelt(300, 8, true, 23)
	var ref []float64
	for _, ranks := range []int{1, 2, 8} {
		outs, _ := runSolver(t, s, ranks, particle.DistRandom, false)
		pot := make([]float64, s.N)
		field := make([]float64, 3*s.N)
		collect(s, outs, pot, field)
		if ref == nil {
			ref = pot
			continue
		}
		// Tuning depends on the process grid (cutoff fits the subdomain),
		// so results agree to solver accuracy, not bitwise.
		var rms, scale float64
		for i := range pot {
			rms += (pot[i] - ref[i]) * (pot[i] - ref[i])
			scale += ref[i] * ref[i]
		}
		if math.Sqrt(rms/scale) > 5e-3 {
			t.Errorf("ranks=%d: rms deviation %g from single-rank result", ranks, math.Sqrt(rms/scale))
		}
	}
}

func TestP2NFFTMethodBMatchesMethodA(t *testing.T) {
	s := particle.SilicaMelt(400, 10, true, 29)
	outsA, _ := runSolver(t, s, 8, particle.DistGrid, false)
	outsB, _ := runSolver(t, s, 8, particle.DistGrid, true)
	potA := make([]float64, s.N)
	fieldA := make([]float64, 3*s.N)
	collect(s, outsA, potA, fieldA)
	potB := make([]float64, s.N)
	fieldB := make([]float64, 3*s.N)
	collect(s, outsB, potB, fieldB)
	for i := 0; i < s.N; i++ {
		if math.Abs(potA[i]-potB[i]) > 1e-9*(math.Abs(potA[i])+1) {
			t.Fatalf("pot[%d]: A %g vs B %g", i, potA[i], potB[i])
		}
	}
	for r := range outsB {
		if !outsB[r].Resorted {
			t.Errorf("rank %d: expected Resorted with method B", r)
		}
	}
}

func TestP2NFFTGridDistributionStaysLocal(t *testing.T) {
	// With the process-grid initial distribution, method B keeps particles
	// on their ranks: the owned count equals the input count and all resort
	// indices are local.
	s := particle.SilicaMelt(500, 12, true, 37)
	const ranks = 8
	st := vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistGrid, 99)
		sv := New(c, s.Box, 1e-3)
		in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1, Resort: true}
		if err := sv.Tune(in); err != nil {
			t.Errorf("tune: %v", err)
		}
		out, err := sv.Run(in)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		if out.N != l.N {
			t.Errorf("rank %d: owned %d, want %d (grid distribution is the solver's own)",
				c.Rank(), out.N, l.N)
		}
		for i, idx := range out.Indices {
			if idx.Rank() != c.Rank() {
				t.Errorf("rank %d: particle %d resorted to rank %d", c.Rank(), i, idx.Rank())
				break
			}
		}
	})
	_ = st
}

func TestP2NFFTResortIndicesRoundTrip(t *testing.T) {
	s := particle.UniformRandom(300, 8, true, 41)
	const ranks = 4
	vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistRandom, 99)
		tags := make([]int64, l.N)
		for i := 0; i < l.N; i++ {
			tags[i] = globalID(s, l.Pos[3*i], l.Pos[3*i+1], l.Pos[3*i+2])
		}
		sv := New(c, s.Box, 1e-3)
		in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1, Resort: true}
		if err := sv.Tune(in); err != nil {
			t.Errorf("tune: %v", err)
		}
		out, err := sv.Run(in)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		if !out.Resorted {
			t.Errorf("rank %d: expected resorted", c.Rank())
			return
		}
		moved := redist.ResortInts(c, tags, 1, out.Indices, out.N)
		for i := 0; i < out.N; i++ {
			want := globalID(s, out.Pos[3*i], out.Pos[3*i+1], out.Pos[3*i+2])
			if moved[i] != want {
				t.Errorf("rank %d pos %d: tag %d, want %d", c.Rank(), i, moved[i], want)
			}
		}
	})
}

func globalID(s *particle.System, x, y, z float64) int64 {
	for i := 0; i < s.N; i++ {
		if s.Pos[3*i] == x && s.Pos[3*i+1] == y && s.Pos[3*i+2] == z {
			return int64(i)
		}
	}
	return -1
}

func TestP2NFFTNeighborhoodPathCorrect(t *testing.T) {
	// Steady state with small movement: the neighborhood backend must
	// produce the same physics as the all-to-all backend.
	s := particle.SilicaMelt(400, 12, true, 43)
	const ranks = 8
	st := vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistGrid, 99)
		sv := New(c, s.Box, 1e-3)
		in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1, Resort: true}
		if err := sv.Tune(in); err != nil {
			t.Errorf("tune: %v", err)
		}
		out1, err := sv.Run(in)
		if err != nil {
			t.Errorf("run1: %v", err)
		}
		// Tiny movement, then run with MaxMove set (neighborhood path) and
		// without (all-to-all): physics must agree bitwise.
		pos2 := append([]float64(nil), out1.Pos...)
		for i := range pos2 {
			pos2[i] += 1e-5 * float64(i%5-2)
		}
		in2 := api.Input{N: out1.N, Cap: l.Cap, Pos: pos2, Q: out1.Q, MaxMove: 4e-5, Resort: true}
		outNbr, err := sv.Run(in2)
		if err != nil {
			t.Errorf("run2: %v", err)
		}
		sv2 := New(c, s.Box, 1e-3)
		if err := sv2.Tune(in); err != nil {
			t.Errorf("tune2: %v", err)
		}
		in3 := in2
		in3.MaxMove = -1
		outA2A, err := sv2.Run(in3)
		if err != nil {
			t.Errorf("run3: %v", err)
		}
		if outNbr.N != outA2A.N {
			t.Errorf("rank %d: N %d vs %d", c.Rank(), outNbr.N, outA2A.N)
		}
		// The two backends may order owned particles differently; compare
		// potentials by particle position.
		potByPos := map[[3]float64]float64{}
		for i := 0; i < outA2A.N; i++ {
			potByPos[[3]float64{outA2A.Pos[3*i], outA2A.Pos[3*i+1], outA2A.Pos[3*i+2]}] = outA2A.Pot[i]
		}
		for i := 0; i < outNbr.N; i++ {
			want, ok := potByPos[[3]float64{outNbr.Pos[3*i], outNbr.Pos[3*i+1], outNbr.Pos[3*i+2]}]
			if !ok {
				t.Errorf("rank %d: particle %d missing from all-to-all result", c.Rank(), i)
				break
			}
			if math.Abs(outNbr.Pot[i]-want) > 1e-9*(math.Abs(want)+1) {
				t.Errorf("rank %d: pot[%d] %g vs %g", c.Rank(), i, outNbr.Pot[i], want)
				break
			}
		}
		c.SetResult(nil)
	})
	_ = st
}

func TestP2NFFTCapacityFallback(t *testing.T) {
	s := particle.UniformRandom(200, 8, true, 47)
	vmpi.Run(vmpi.Config{Ranks: 4}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistSingle, 99)
		sv := New(c, s.Box, 1e-2)
		capN := 1 // far too small everywhere except maybe rank 0
		if c.Rank() == 0 {
			capN = l.N
		}
		in := api.Input{N: l.N, Cap: capN, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1, Resort: true}
		if err := sv.Tune(in); err != nil {
			t.Errorf("tune: %v", err)
		}
		out, err := sv.Run(in)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		if out.Resorted {
			t.Errorf("rank %d: expected capacity fallback", c.Rank())
		}
		if out.N != l.N {
			t.Errorf("rank %d: N changed to %d", c.Rank(), out.N)
		}
	})
}

func TestTuneParameters(t *testing.T) {
	box := particle.NewCubicBox(10, true)
	vmpi.Run(vmpi.Config{Ranks: 8}, func(c *vmpi.Comm) {
		sv := New(c, box, 1e-3)
		if err := sv.Tune(api.Input{}); err != nil {
			t.Errorf("tune: %v", err)
		}
		if sv.RCut <= 0 || sv.RCut > 5 {
			t.Errorf("RCut = %g", sv.RCut)
		}
		// Cutoff must fit within one subdomain layer (2x2x2 grid: side 5).
		if sv.RCut > 5 {
			t.Errorf("RCut %g exceeds subdomain side", sv.RCut)
		}
		if sv.Mesh&(sv.Mesh-1) != 0 {
			t.Errorf("mesh %d not a power of two", sv.Mesh)
		}
		if sv.Alpha <= 0 {
			t.Errorf("alpha = %g", sv.Alpha)
		}
	})
}

func TestAssignmentOrderAblation(t *testing.T) {
	// The classic particle-mesh trade-off: the order-3 spline (TSC) must
	// beat order-2 (CIC) on field accuracy at the same mesh.
	s := particle.SilicaMelt(343, 9.5, true, 53)
	e := refsolve.NewEwald(s.Box, 1e-7)
	wantPot := make([]float64, s.N)
	wantField := make([]float64, 3*s.N)
	e.Compute(s.Pos, s.Q, wantPot, wantField)

	errFor := func(order int) float64 {
		st := vmpi.Run(vmpi.Config{Ranks: 4}, func(c *vmpi.Comm) {
			l := particle.Distribute(c, s, particle.DistRandom, 99)
			sv := New(c, s.Box, 1e-3)
			sv.setAssignmentOrder(order)
			in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1}
			if err := sv.Tune(in); err != nil {
				t.Errorf("tune: %v", err)
			}
			if sv.Order != order {
				t.Errorf("order override lost: %d", sv.Order)
			}
			out, err := sv.Run(in)
			if err != nil {
				t.Errorf("run: %v", err)
			}
			c.SetResult(out)
		})
		outs := make([]api.Output, 4)
		for r, v := range st.Values {
			outs[r] = v.(api.Output)
		}
		pot := make([]float64, s.N)
		field := make([]float64, 3*s.N)
		collect(s, outs, pot, field)
		var rms, scale float64
		for i := range field {
			rms += (field[i] - wantField[i]) * (field[i] - wantField[i])
			scale += wantField[i] * wantField[i]
		}
		return math.Sqrt(rms / scale)
	}
	cic := errFor(2)
	tsc := errFor(3)
	if tsc >= cic {
		t.Errorf("TSC field error %g should beat CIC %g", tsc, cic)
	}
	t.Logf("rms field error: CIC %.3g, TSC %.3g", cic, tsc)
}

func TestAssignmentOrderValidation(t *testing.T) {
	vmpi.Run(vmpi.Config{Ranks: 1}, func(c *vmpi.Comm) {
		sv := New(c, particle.NewCubicBox(4, true), 1e-3)
		defer func() {
			if recover() == nil {
				t.Error("order 5 should panic")
			}
		}()
		sv.setAssignmentOrder(5)
	})
}
