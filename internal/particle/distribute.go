package particle

import (
	"math/rand"

	"repro/internal/vmpi"
)

// Initial distributions of a particle system among parallel processes
// (paper §II-D / §IV-B): all particles on one single process, a uniformly
// random distribution, or a domain decomposition over a Cartesian process
// grid.
//
// Every rank calls a Distribute* function with the same (deterministically
// generated) global system; each rank keeps only its own share, so no
// communication is needed to establish the initial distribution.

// Dist identifies an initial particle distribution.
type Dist int

const (
	// DistSingle stores all particles on rank 0.
	DistSingle Dist = iota
	// DistRandom assigns each particle to a uniformly random rank.
	DistRandom
	// DistGrid distributes particles over a Cartesian process grid
	// according to their positions.
	DistGrid
)

// String returns the paper's name for the distribution.
func (d Dist) String() string {
	switch d {
	case DistSingle:
		return "single process"
	case DistRandom:
		return "random"
	case DistGrid:
		return "process grid"
	default:
		return "unknown"
	}
}

// Distribute returns the calling rank's share of s under distribution d.
// The returned Local is allocated with enough spare capacity for method B's
// redistribution contract (a slack factor over the average load).
func Distribute(c *vmpi.Comm, s *System, d Dist, seed int64) *Local {
	switch d {
	case DistSingle:
		return distributeSingle(c, s)
	case DistRandom:
		return distributeRandom(c, s, seed)
	case DistGrid:
		return distributeGrid(c, s)
	default:
		panic("particle: unknown distribution")
	}
}

// localCapacity returns the array capacity used for a rank's local store:
// a slack factor over the average particles per rank, bounded below so tiny
// runs still have room to absorb imbalance (pure-Coulomb ion systems
// cluster over long runs, concentrating load).
func localCapacity(totalN, ranks int) int {
	avg := totalN/ranks + 1
	c := avg * 6
	if c < totalN && c < 1024 {
		c = min(totalN, 1024)
	}
	if c > totalN {
		c = totalN
	}
	if c < 1 {
		c = 1
	}
	return c
}

func distributeSingle(c *vmpi.Comm, s *System) *Local {
	// Rank 0 must be able to hold the full system.
	capacity := s.N
	if c.Rank() != 0 {
		capacity = localCapacity(s.N, c.Size())
	}
	l := NewLocal(s.Box, capacity)
	if c.Rank() == 0 {
		for i := 0; i < s.N; i++ {
			appendFrom(l, s, i)
		}
	}
	return l
}

func distributeRandom(c *vmpi.Comm, s *System, seed int64) *Local {
	rng := rand.New(rand.NewSource(seed))
	p := c.Size()
	owner := make([]int, s.N)
	for i := range owner {
		owner[i] = rng.Intn(p)
	}
	count := 0
	for _, o := range owner {
		if o == c.Rank() {
			count++
		}
	}
	capacity := max(localCapacity(s.N, p), count)
	l := NewLocal(s.Box, capacity)
	for i := 0; i < s.N; i++ {
		if owner[i] == c.Rank() {
			appendFrom(l, s, i)
		}
	}
	return l
}

func distributeGrid(c *vmpi.Comm, s *System) *Local {
	dims := vmpi.DimsCreate(c.Size(), 3)
	mine := make([]int, 0, s.N/c.Size()+16)
	for i := 0; i < s.N; i++ {
		if GridRank(&s.Box, dims, s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2]) == c.Rank() {
			mine = append(mine, i)
		}
	}
	capacity := max(localCapacity(s.N, c.Size()), len(mine))
	l := NewLocal(s.Box, capacity)
	for _, i := range mine {
		appendFrom(l, s, i)
	}
	return l
}

// GridRank maps a position to its owner rank in a row-major Cartesian
// process grid with the given dimensions over the box.
func GridRank(box *Box, dims []int, x, y, z float64) int {
	ux, uy, uz := box.ToUnit(x, y, z)
	u := [3]float64{ux, uy, uz}
	rank := 0
	for d := 0; d < 3; d++ {
		i := int(u[d] * float64(dims[d]))
		if i >= dims[d] {
			i = dims[d] - 1
		}
		if i < 0 {
			i = 0
		}
		rank = rank*dims[d] + i
	}
	return rank
}

// GridCellBounds returns the [lo, hi) fractional bounds of the grid cell
// with the given coordinates.
func GridCellBounds(dims []int, coords []int) (lo, hi [3]float64) {
	for d := 0; d < 3; d++ {
		lo[d] = float64(coords[d]) / float64(dims[d])
		hi[d] = float64(coords[d]+1) / float64(dims[d])
	}
	return lo, hi
}

func appendFrom(l *Local, s *System, i int) {
	l.Append(
		s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2],
		s.Q[i],
		s.Vel[3*i], s.Vel[3*i+1], s.Vel[3*i+2],
	)
}
