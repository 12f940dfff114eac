package fmm

import (
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/particle"
	"repro/internal/redist"
	"repro/internal/refsolve"
	"repro/internal/vmpi"
)

// runParallel distributes s under dist, runs one solver call per rank with
// the given method, and returns per-rank outputs.
func runParallel(t *testing.T, s *particle.System, ranks int, dist particle.Dist,
	resort bool, accuracy float64) ([]api.Output, *vmpi.Stats) {
	t.Helper()
	st := vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, dist, 99)
		sv := newSolver(c, s.Box, accuracy)
		in := api.Input{
			N: l.N, Cap: l.Cap,
			Pos: l.ActivePos(), Q: l.ActiveQ(),
			MaxMove: -1, Resort: resort,
		}
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

// serialReference computes the serial FMM solution for the same system.
func serialReference(s *particle.System, accuracy float64, level int) (pot, field []float64) {
	pot = make([]float64, s.N)
	field = make([]float64, 3*s.N)
	SolveSerial(NewTables(orderFor(accuracy)), s.Box, level, s.Pos, s.Q, pot, field)
	return pot, field
}

func TestParallelMethodAMatchesSerial(t *testing.T) {
	s := particle.UniformRandom(400, 8, false, 21)
	const ranks = 4
	outs, _ := runParallel(t, s, ranks, particle.DistRandom, false, 1e-3)

	// Gather parallel results back to global order via the known random
	// distribution (Distribute is deterministic in its seed).
	potPar := make([]float64, s.N)
	fieldPar := make([]float64, 3*s.N)
	collectByDistribution(s, ranks, particle.DistRandom, outs, potPar, fieldPar)

	// Reference: the same physics from the serial engine at the same level
	// the parallel solver tuned to.
	level := tunedLevel(s.N)
	potSer, fieldSer := serialReference(s, 1e-3, level)
	for i := 0; i < s.N; i++ {
		if math.Abs(potPar[i]-potSer[i]) > 1e-9*(math.Abs(potSer[i])+1) {
			t.Fatalf("pot[%d]: parallel %g vs serial %g", i, potPar[i], potSer[i])
		}
	}
	for i := 0; i < 3*s.N; i++ {
		if math.Abs(fieldPar[i]-fieldSer[i]) > 1e-8*(math.Abs(fieldSer[i])+1) {
			t.Fatalf("field[%d]: parallel %g vs serial %g", i, fieldPar[i], fieldSer[i])
		}
	}
}

// tunedLevel mirrors Solver.Tune's level choice.
func tunedLevel(n int) int {
	level := int(math.Round(math.Log(float64(n)/10) / math.Log(8)))
	if level < 2 {
		level = 2
	}
	return level
}

// collectByDistribution reassembles per-rank method A outputs into global
// arrays, using the deterministic Distribute assignment.
func collectByDistribution(s *particle.System, ranks int, dist particle.Dist,
	outs []api.Output, pot, field []float64) {
	// Match by position: build an index from position triple to global id
	// (generated positions are unique).
	type key [3]float64
	idx := make(map[key]int, s.N)
	for i := 0; i < s.N; i++ {
		idx[key{s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2]}] = i
	}
	for r := 0; r < ranks; r++ {
		o := outs[r]
		for i := 0; i < o.N; i++ {
			g, ok := idx[key{o.Pos[3*i], o.Pos[3*i+1], o.Pos[3*i+2]}]
			if !ok {
				panic("collect: unknown particle position")
			}
			pot[g] = o.Pot[i]
			field[3*g] = o.Field[3*i]
			field[3*g+1] = o.Field[3*i+1]
			field[3*g+2] = o.Field[3*i+2]
		}
	}
}

func TestParallelMethodBMatchesMethodA(t *testing.T) {
	// Method A and method B must compute identical physics; only the
	// returned layout differs.
	s := particle.SilicaMelt(600, 12, true, 31)
	const ranks = 4
	outsA, _ := runParallel(t, s, ranks, particle.DistGrid, false, 1e-3)
	outsB, _ := runParallel(t, s, ranks, particle.DistGrid, true, 1e-3)

	potA := make([]float64, s.N)
	fieldA := make([]float64, 3*s.N)
	collectByDistribution(s, ranks, particle.DistGrid, outsA, potA, fieldA)
	potB := make([]float64, s.N)
	fieldB := make([]float64, 3*s.N)
	collectByDistribution(s, ranks, particle.DistGrid, outsB, potB, fieldB)

	for i := 0; i < s.N; i++ {
		if math.Abs(potA[i]-potB[i]) > 1e-9*(math.Abs(potA[i])+1) {
			t.Fatalf("pot[%d]: A %g vs B %g", i, potA[i], potB[i])
		}
	}
	for r := 0; r < ranks; r++ {
		if !outsB[r].Resorted {
			t.Errorf("rank %d: method B should report Resorted", r)
		}
		if outsA[r].Resorted {
			t.Errorf("rank %d: method A must not report Resorted", r)
		}
	}
}

func TestParallelEnergyVsEwald(t *testing.T) {
	s := particle.SilicaMelt(500, 10, true, 41)
	outs, _ := runParallel(t, s, 4, particle.DistRandom, false, 1e-3)
	pot := make([]float64, s.N)
	field := make([]float64, 3*s.N)
	collectByDistribution(s, 4, particle.DistRandom, outs, pot, field)
	u := refsolve.Energy(s.Q, pot)

	e := refsolve.NewEwald(s.Box, 1e-6)
	wantPot := make([]float64, s.N)
	wantField := make([]float64, 3*s.N)
	e.Compute(s.Pos, s.Q, wantPot, wantField)
	wantU := refsolve.Energy(s.Q, wantPot)
	if relErr(u, wantU) > 5e-2 {
		t.Errorf("parallel periodic energy %g vs Ewald %g", u, wantU)
	}
}

func TestMethodBResortIndicesRoundTrip(t *testing.T) {
	// The resort indices must correctly carry additional per-particle data
	// into the changed order: tag each particle with its global id, resort
	// the tags, and check they match the returned positions.
	s := particle.UniformRandom(300, 8, true, 51)
	const ranks = 3
	st := vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistRandom, 99)
		// Tag = global particle id, found by position lookup.
		tags := make([]int64, l.N)
		for i := 0; i < l.N; i++ {
			tags[i] = globalID(s, l.Pos[3*i], l.Pos[3*i+1], l.Pos[3*i+2])
		}
		sv := newSolver(c, s.Box, 1e-2)
		in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1, Resort: true}
		if err := sv.Tune(in); err != nil {
			t.Errorf("tune: %v", err)
		}
		out, err := sv.Run(in)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		if !out.Resorted {
			t.Errorf("rank %d: expected resorted output", c.Rank())
		}
		moved := redist.ResortInts(c, tags, 1, out.Indices, out.N)
		// moved[i] must be the global id of the particle at out position i.
		for i := 0; i < out.N; i++ {
			want := globalID(s, out.Pos[3*i], out.Pos[3*i+1], out.Pos[3*i+2])
			if moved[i] != want {
				t.Errorf("rank %d pos %d: tag %d, want %d", c.Rank(), i, moved[i], want)
			}
		}
	})
	_ = st
}

func globalID(s *particle.System, x, y, z float64) int64 {
	for i := 0; i < s.N; i++ {
		if s.Pos[3*i] == x && s.Pos[3*i+1] == y && s.Pos[3*i+2] == z {
			return int64(i)
		}
	}
	return -1
}

func TestMethodBCapacityFallback(t *testing.T) {
	// With tiny capacities on some rank, method B must restore the
	// original distribution instead (library contract, §III-B).
	s := particle.UniformRandom(200, 8, true, 61)
	const ranks = 4
	st := vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistRandom, 99)
		sv := newSolver(c, s.Box, 1e-2)
		cap := l.N // no slack: the sort will certainly exceed it somewhere
		if c.Rank() == 0 {
			cap = 1
		}
		in := api.Input{N: l.N, Cap: cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1, Resort: true}
		if err := sv.Tune(in); err != nil {
			t.Errorf("tune: %v", err)
		}
		out, err := sv.Run(in)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		if out.Resorted {
			t.Errorf("rank %d: expected fallback to original order", c.Rank())
		}
		if out.N != l.N {
			t.Errorf("rank %d: N = %d, want %d", c.Rank(), out.N, l.N)
		}
		c.SetResult(out)
	})
	_ = st
}

func TestMergeSortPathAfterSmallMovement(t *testing.T) {
	// Steady-state method B: after a first Run, a second Run with small
	// MaxMove must take the merge-sort path and produce correct physics.
	s := particle.SilicaMelt(400, 10, true, 71)
	const ranks = 4
	st := vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistGrid, 99)
		sv := newSolver(c, s.Box, 1e-2)
		in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1, Resort: true}
		if err := sv.Tune(in); err != nil {
			t.Errorf("tune: %v", err)
		}
		out1, err := sv.Run(in)
		if err != nil {
			t.Errorf("run1: %v", err)
		}
		// Move particles slightly and run again from the changed layout.
		pos2 := append([]float64(nil), out1.Pos...)
		for i := range pos2 {
			pos2[i] += 1e-4 * float64(i%7-3)
		}
		q2 := append([]float64(nil), out1.Q...)
		in2 := api.Input{N: out1.N, Cap: l.Cap, Pos: pos2, Q: q2, MaxMove: 7e-4, Resort: true}
		out2, err := sv.Run(in2)
		if err != nil {
			t.Errorf("run2: %v", err)
		}
		c.SetResult([2]api.Output{out1, out2})
	})
	// Energy from run 2 should be close to run 1 (tiny movement).
	u1, u2 := 0.0, 0.0
	for _, v := range st.Values {
		pair := v.([2]api.Output)
		u1 += partialEnergy(pair[0])
		u2 += partialEnergy(pair[1])
	}
	if relErr(u2, u1) > 1e-2 {
		t.Errorf("energy jumped after tiny movement: %g vs %g", u2, u1)
	}
}

func partialEnergy(o api.Output) float64 {
	u := 0.0
	for i := 0; i < o.N; i++ {
		u += o.Q[i] * o.Pot[i]
	}
	return u / 2
}

func TestSolverName(t *testing.T) {
	st := vmpi.Run(vmpi.Config{Ranks: 1}, func(c *vmpi.Comm) {
		sv := NewSolver(c, particle.NewCubicBox(1, false), 1e-3)
		c.SetResult(sv.Name())
	})
	if st.Values[0].(string) != "fmm" {
		t.Errorf("Name = %v", st.Values[0])
	}
}
