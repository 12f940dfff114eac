// Package cells implements the linked cell algorithm (paper §II-C,
// reference [11]): particles are binned into boxes of at least the cutoff
// radius so that all pairs within the cutoff are found by scanning each
// cell and its forward neighbor cells in O(n) instead of O(n²).
//
// The grid covers an arbitrary axis-aligned region, which lets the P2NFFT
// solver build it over a process subdomain extended by its ghost layer.
package cells

import "fmt"

// Grid is a linked-cell structure over a fixed set of particle positions.
type Grid struct {
	lo, hi [3]float64
	n      [3]int
	inv    [3]float64 // cells per unit length
	head   []int      // first particle of each cell, -1 if empty
	next   []int      // next particle in the same cell, -1 at end
	cellOf []int      // cell index per particle
}

// Rebuild bins n particles (positions in pos, length 3n) into cells of side
// at least cutoff covering [lo, hi). Particles outside the region are
// clamped into the boundary cells, which is correct for ghost particles
// lying just outside a subdomain. It panics if the region is degenerate or
// cutoff is not positive.
//
// Rebuild reuses the grid's head/next/cellOf allocations when their
// capacity suffices. Region, cutoff, and particle count may all change
// between rebuilds; the result is identical to binning into a zero Grid, so
// solvers keep one grid per subdomain across time steps instead of
// allocating a new one every step.
func (g *Grid) Rebuild(pos []float64, n int, lo, hi [3]float64, cutoff float64) {
	if cutoff <= 0 {
		panic("cells: cutoff must be positive")
	}
	if len(pos) < 3*n {
		panic(fmt.Sprintf("cells: %d positions for %d particles", len(pos)/3, n))
	}
	g.lo, g.hi = lo, hi
	total := 1
	for d := 0; d < 3; d++ {
		ext := hi[d] - lo[d]
		if ext <= 0 {
			panic("cells: degenerate region")
		}
		g.n[d] = int(ext / cutoff)
		if g.n[d] < 1 {
			g.n[d] = 1
		}
		g.inv[d] = float64(g.n[d]) / ext
		total *= g.n[d]
	}
	g.head = growInts(g.head, total)
	for i := range g.head {
		g.head[i] = -1
	}
	g.next = growInts(g.next, n)
	g.cellOf = growInts(g.cellOf, n)
	for i := 0; i < n; i++ {
		ci := g.cellIndex(pos[3*i], pos[3*i+1], pos[3*i+2])
		g.cellOf[i] = ci
		g.next[i] = g.head[ci]
		g.head[ci] = i
	}
}

// growInts resizes an int scratch slice, reallocating only on capacity
// growth; contents are unspecified.
func growInts(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// Dims returns the number of cells per dimension.
func (g *Grid) Dims() [3]int { return g.n }

// cellIndex maps a position to its (clamped) cell index.
func (g *Grid) cellIndex(x, y, z float64) int {
	p := [3]float64{x, y, z}
	idx := 0
	for d := 0; d < 3; d++ {
		c := int((p[d] - g.lo[d]) * g.inv[d])
		if c < 0 {
			c = 0
		}
		if c >= g.n[d] {
			c = g.n[d] - 1
		}
		idx = idx*g.n[d] + c
	}
	return idx
}

// CellOf returns the cell index a particle was binned into.
func (g *Grid) CellOf(i int) int { return g.cellOf[i] }

// CellCount returns the number of particles in the given cell.
func (g *Grid) CellCount(cell int) int {
	n := 0
	for i := g.head[cell]; i >= 0; i = g.next[i] {
		n++
	}
	return n
}

// ForEachPair calls fn(i, j) exactly once for every unordered particle pair
// {i, j} that shares a cell or lies in neighboring cells (the candidate set
// for a cutoff interaction; callers apply the exact distance test). fn is
// called with i < j for same-cell pairs; across cells the order follows the
// forward-neighbor scan. The total number of candidate pairs is returned.
func (g *Grid) ForEachPair(fn func(i, j int)) int {
	pairs := 0
	nx, ny, nz := g.n[0], g.n[1], g.n[2]
	// Forward half-neighborhood: 13 offsets plus the cell itself.
	offsets := [][3]int{
		{0, 0, 1}, {0, 1, -1}, {0, 1, 0}, {0, 1, 1},
		{1, -1, -1}, {1, -1, 0}, {1, -1, 1},
		{1, 0, -1}, {1, 0, 0}, {1, 0, 1},
		{1, 1, -1}, {1, 1, 0}, {1, 1, 1},
	}
	for cx := 0; cx < nx; cx++ {
		for cy := 0; cy < ny; cy++ {
			for cz := 0; cz < nz; cz++ {
				cell := (cx*ny+cy)*nz + cz
				// Pairs within the cell.
				for i := g.head[cell]; i >= 0; i = g.next[i] {
					for j := g.next[i]; j >= 0; j = g.next[j] {
						a, b := i, j
						if a > b {
							a, b = b, a
						}
						fn(a, b)
						pairs++
					}
				}
				// Pairs with forward neighbor cells.
				for _, off := range offsets {
					ox, oy, oz := cx+off[0], cy+off[1], cz+off[2]
					if ox < 0 || ox >= nx || oy < 0 || oy >= ny || oz < 0 || oz >= nz {
						continue
					}
					other := (ox*ny+oy)*nz + oz
					for i := g.head[cell]; i >= 0; i = g.next[i] {
						for j := g.head[other]; j >= 0; j = g.next[j] {
							fn(i, j)
							pairs++
						}
					}
				}
			}
		}
	}
	return pairs
}

// ForEachInCell calls fn(i) for every particle in the given cell.
func (g *Grid) ForEachInCell(cell int, fn func(i int)) {
	for i := g.head[cell]; i >= 0; i = g.next[i] {
		fn(i)
	}
}
