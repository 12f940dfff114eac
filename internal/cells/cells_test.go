package cells

import (
	"math"
	"math/rand"
	"testing"
)

// build bins n particles into a fresh grid over [lo, hi).
func build(pos []float64, n int, lo, hi [3]float64, cutoff float64) *Grid {
	g := &Grid{}
	g.Rebuild(pos, n, lo, hi, cutoff)
	return g
}

// bruteForcePairs returns the set of pairs within cutoff.
func bruteForcePairs(pos []float64, n int, cutoff float64) map[[2]int]bool {
	out := map[[2]int]bool{}
	c2 := cutoff * cutoff
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := pos[3*i] - pos[3*j]
			dy := pos[3*i+1] - pos[3*j+1]
			dz := pos[3*i+2] - pos[3*j+2]
			if dx*dx+dy*dy+dz*dz <= c2 {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

func TestForEachPairFindsAllCutoffPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 300
	const cutoff = 0.15
	pos := make([]float64, 3*n)
	for i := range pos {
		pos[i] = rng.Float64()
	}
	g := build(pos, n, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, cutoff)
	want := bruteForcePairs(pos, n, cutoff)
	got := map[[2]int]bool{}
	g.ForEachPair(func(i, j int) {
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		if got[[2]int{a, b}] {
			t.Fatalf("pair (%d,%d) visited twice", a, b)
		}
		got[[2]int{a, b}] = true
	})
	for p := range want {
		if !got[p] {
			t.Errorf("missed cutoff pair %v", p)
		}
	}
}

func TestForEachPairNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 150
	pos := make([]float64, 3*n)
	for i := range pos {
		pos[i] = rng.Float64() * 4
	}
	g := build(pos, n, [3]float64{0, 0, 0}, [3]float64{4, 4, 4}, 0.8)
	seen := map[[2]int]bool{}
	g.ForEachPair(func(i, j int) {
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if seen[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		seen[key] = true
	})
}

func TestForEachPairCandidateEfficiency(t *testing.T) {
	// The candidate count must be far below n² for a dense uniform system
	// with a small cutoff.
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	pos := make([]float64, 3*n)
	for i := range pos {
		pos[i] = rng.Float64() * 10
	}
	g := build(pos, n, [3]float64{0, 0, 0}, [3]float64{10, 10, 10}, 0.7)
	candidates := g.ForEachPair(func(i, j int) {})
	if candidates > n*n/10 {
		t.Errorf("linked cells degenerate: %d candidates for %d particles", candidates, n)
	}
}

func TestBuildClampsOutOfRange(t *testing.T) {
	// Ghost particles slightly outside the region must be binned into
	// boundary cells, not lost.
	pos := []float64{-0.05, 0.5, 0.5, 1.02, 0.5, 0.5, 0.5, 0.5, 0.5}
	g := build(pos, 3, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, 0.3)
	total := 0
	for c := 0; c < g.n[0]*g.n[1]*g.n[2]; c++ {
		total += g.CellCount(c)
	}
	if total != 3 {
		t.Errorf("binned %d particles, want 3", total)
	}
}

func TestSmallRegionSingleCell(t *testing.T) {
	// Region smaller than cutoff: one cell, all pairs visited.
	pos := []float64{0.1, 0.1, 0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3}
	g := build(pos, 3, [3]float64{0, 0, 0}, [3]float64{0.5, 0.5, 0.5}, 2.0)
	if d := g.Dims(); d != [3]int{1, 1, 1} {
		t.Fatalf("dims = %v", d)
	}
	count := 0
	g.ForEachPair(func(i, j int) { count++ })
	if count != 3 {
		t.Errorf("%d pairs, want 3", count)
	}
}

func TestCellSideAtLeastCutoff(t *testing.T) {
	g := build(nil, 0, [3]float64{0, 0, 0}, [3]float64{10, 7, 3}, 0.9)
	d := g.Dims()
	for dim, ext := range []float64{10, 7, 3} {
		side := ext / float64(d[dim])
		if side < 0.9-1e-12 {
			t.Errorf("dim %d: cell side %g < cutoff", dim, side)
		}
	}
}

func TestForEachInCell(t *testing.T) {
	pos := []float64{0.1, 0.1, 0.1, 0.12, 0.12, 0.12, 0.9, 0.9, 0.9}
	g := build(pos, 3, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, 0.25)
	c0 := g.CellOf(0)
	if g.CellOf(1) != c0 {
		t.Fatal("close particles should share a cell")
	}
	if g.CellOf(2) == c0 {
		t.Fatal("distant particle should be elsewhere")
	}
	var got []int
	g.ForEachInCell(c0, func(i int) { got = append(got, i) })
	if len(got) != 2 {
		t.Errorf("cell holds %v", got)
	}
	if g.CellCount(c0) != 2 {
		t.Errorf("CellCount = %d", g.CellCount(c0))
	}
}

func TestBuildPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero cutoff": func() { build(nil, 0, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, 0) },
		"degenerate":  func() { build(nil, 0, [3]float64{0, 0, 0}, [3]float64{0, 1, 1}, 0.1) },
		"short pos":   func() { build([]float64{1, 2}, 3, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, 0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDistanceFilterExample(t *testing.T) {
	// Sanity: candidate pairs beyond sqrt(3)*2*cellside are impossible.
	rng := rand.New(rand.NewSource(5))
	const n = 200
	pos := make([]float64, 3*n)
	for i := range pos {
		pos[i] = rng.Float64() * 6
	}
	const cutoff = 1.0
	g := build(pos, n, [3]float64{0, 0, 0}, [3]float64{6, 6, 6}, cutoff)
	side := 6.0 / float64(g.Dims()[0])
	maxD := math.Sqrt(3) * 2 * side
	g.ForEachPair(func(i, j int) {
		dx := pos[3*i] - pos[3*j]
		dy := pos[3*i+1] - pos[3*j+1]
		dz := pos[3*i+2] - pos[3*j+2]
		if d := math.Sqrt(dx*dx + dy*dy + dz*dz); d > maxD {
			t.Fatalf("candidate pair at distance %g > %g", d, maxD)
		}
	})
}
