package vmpi

import (
	"slices"
	"testing"
)

// refNeighbors is Cart.Neighbors as it was before the one coordinate
// buffer: a fresh coordinate slice per offset and a set of the ranks seen,
// then an insertion sort. The reference TestNeighborsMatchReference holds
// neighbors to.
func refNeighbors(g *Cart, rank, radius int) []int {
	coords := g.Coords(rank)
	seen := map[int]bool{}
	var out []int
	offs := make([]int, len(g.dims))
	for i := range offs {
		offs[i] = -radius
	}
	for {
		c2 := make([]int, len(coords))
		for i := range coords {
			c2[i] = coords[i] + offs[i]
		}
		if r := g.RankOf(c2); r >= 0 && r != rank && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
		i := 0
		for ; i < len(offs); i++ {
			offs[i]++
			if offs[i] <= radius {
				break
			}
			offs[i] = -radius
		}
		if i == len(offs) {
			break
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// neighbors matches refNeighbors for every rank of grids of one to three
// dimensions, every mix of periodic and non-periodic dimensions and radii 0
// to 2 — dimensions of 1 and 2 among them, where wraps reach a rank more
// than once, or the rank itself.
func TestNeighborsMatchReference(t *testing.T) {
	for _, dims := range [][]int{
		{1}, {2}, {3}, {5},
		{1, 4}, {2, 2}, {3, 2}, {4, 5},
		{1, 2, 3}, {2, 2, 2}, {3, 1, 4}, {4, 3, 2},
	} {
		for mask := 0; mask < 1<<len(dims); mask++ {
			g := &Cart{dims: dims, periodic: make([]bool, len(dims))}
			for i := range dims {
				g.periodic[i] = mask&(1<<i) != 0
			}
			size := 1
			for _, d := range dims {
				size *= d
			}
			for radius := 0; radius <= 2; radius++ {
				for rank := 0; rank < size; rank++ {
					got, want := g.neighbors(rank, radius), refNeighbors(g, rank, radius)
					if !slices.Equal(got, want) {
						t.Fatalf("dims %v periodic %v, rank %d, radius %d: neighbors %v, reference %v",
							dims, g.periodic, rank, radius, got, want)
					}
				}
			}
		}
	}
}

// neighbors allocates a fixed number of slices, not one per visited offset.
func TestNeighborsAllocations(t *testing.T) {
	if raceEnabled || debugEnabled() {
		t.Skip("allocation counts under instrumentation")
	}
	g := &Cart{dims: []int{8, 8, 8}, periodic: []bool{true, true, true}}
	if n := testing.AllocsPerRun(10, func() { g.neighbors(100, 2) }); n > 4 {
		t.Errorf("neighbors(radius 2) on an 8x8x8 torus: %v allocations, want at most 4", n)
	}
}
