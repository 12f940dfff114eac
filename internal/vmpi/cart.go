package vmpi

import (
	"fmt"
	"slices"
)

// Cart is a Cartesian process topology over a communicator, analogous to an
// MPI Cartesian communicator. Rank r maps to coordinates in row-major order.
// The P2NFFT solver uses a Cart for its uniform domain decomposition and for
// neighborhood communication.
type Cart struct {
	*Comm
	dims     []int
	periodic []bool
}

// CartCreate builds a Cartesian topology with the given dimensions over c.
// The product of dims must equal the communicator size. Every rank must
// call it.
func CartCreate(c *Comm, dims []int, periodic []bool) *Cart {
	n := 1
	for _, d := range dims {
		if d < 1 {
			panic(fmt.Sprintf("vmpi: invalid Cartesian dimension %d", d))
		}
		n *= d
	}
	if n != c.Size() {
		panic(fmt.Sprintf("vmpi: Cartesian dims %v product %d != communicator size %d", dims, n, c.Size()))
	}
	if len(periodic) != len(dims) {
		panic("vmpi: periodic length must match dims")
	}
	return &Cart{
		Comm:     c,
		dims:     append([]int(nil), dims...),
		periodic: append([]bool(nil), periodic...),
	}
}

// DimsCreate factors size into ndims balanced dimensions (largest first),
// like MPI_Dims_create. It panics if size has a prime factor structure that
// cannot be factored (it always can; any size factors, possibly unevenly).
func DimsCreate(size, ndims int) []int {
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Greedily assign prime factors (largest first) to the smallest dim.
	for _, f := range primeFactorsDesc(size) {
		small := 0
		for i := 1; i < ndims; i++ {
			if dims[i] < dims[small] {
				small = i
			}
		}
		dims[small] *= f
	}
	// Sort descending for the MPI convention.
	for i := 0; i < ndims; i++ {
		for j := i + 1; j < ndims; j++ {
			if dims[j] > dims[i] {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims
}

func primeFactorsDesc(n int) []int {
	var fs []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	// descending
	for i, j := 0, len(fs)-1; i < j; i, j = i+1, j-1 {
		fs[i], fs[j] = fs[j], fs[i]
	}
	return fs
}

// Coords returns the Cartesian coordinates of the given rank.
func (g *Cart) Coords(rank int) []int {
	c := make([]int, len(g.dims))
	for i := len(g.dims) - 1; i >= 0; i-- {
		c[i] = rank % g.dims[i]
		rank /= g.dims[i]
	}
	return c
}

// RankOf returns the rank at the given coordinates, wrapping periodic
// dimensions. It returns -1 if a non-periodic coordinate is out of range.
func (g *Cart) RankOf(coords []int) int {
	rank := 0
	for i, d := range g.dims {
		x := coords[i]
		if g.periodic[i] {
			x = ((x % d) + d) % d
		} else if x < 0 || x >= d {
			return -1
		}
		rank = rank*d + x
	}
	return rank
}

// Shift returns the (source, destination) ranks displaced by disp along the
// given dimension, like MPI_Cart_shift. Either may be -1 at non-periodic
// boundaries.
func (g *Cart) Shift(dim, disp int) (src, dst int) {
	coords := g.Coords(g.Rank())
	c2 := append([]int(nil), coords...)
	c2[dim] = coords[dim] + disp
	dst = g.RankOf(c2)
	c2[dim] = coords[dim] - disp
	src = g.RankOf(c2)
	return src, dst
}

// Neighbors returns the distinct ranks within the given Chebyshev radius of
// the calling rank in the grid (excluding the rank itself), in ascending
// rank order. Radius 1 yields the up-to-3^d-1 direct neighbors used for
// neighborhood communication.
func (g *Cart) Neighbors(radius int) []int { return g.neighbors(g.Rank(), radius) }

// neighbors is Neighbors of any rank: every offset in [-radius, radius]^d
// is visited with one coordinate buffer, and the ranks a wrap reaches twice
// are dropped after the sort.
func (g *Cart) neighbors(rank, radius int) []int {
	coords := g.Coords(rank)
	offs, at := make([]int, len(coords)), make([]int, len(coords))
	visits, size := 1, 1
	for i, d := range g.dims {
		offs[i] = -radius
		visits, size = visits*(2*radius+1), size*d
	}
	out := make([]int, 0, min(visits, size))
	for {
		for i := range coords {
			at[i] = coords[i] + offs[i]
		}
		if r := g.RankOf(at); r >= 0 && r != rank {
			out = append(out, r)
		}
		// odometer increment
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
	slices.Sort(out)
	return slices.Compact(out)
}
