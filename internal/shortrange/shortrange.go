// Package shortrange computes application-side short-range pair
// interactions. The paper's introduction names "additional short range
// interactions" as a typical program component that a particle code couples
// with the long-range library; this package plays that role in the example
// applications.
//
// It implements a Born-Mayer-style soft-core repulsion
//
//	u(r) = A · exp(−r/ρ)          for r < cutoff
//
// which keeps oppositely charged ions from collapsing onto each other in
// long simulations (the benchmark melt has no hard cores of its own).
//
// Parallelization mirrors the P2NFFT near field: particles are assumed to
// be distributed arbitrarily; the package redistributes them to a Cartesian
// process grid with ghost layers using the fine-grained redistribution
// operation, computes forces with linked cells, and routes the results back
// to the owners — another exercise of the redistribution machinery under
// test.
package shortrange

import (
	"math"

	"repro/internal/cells"
	"repro/internal/costs"
	"repro/internal/particle"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// Params describes the repulsive potential.
type Params struct {
	// A is the energy scale of the repulsion.
	A float64
	// Rho is the screening length.
	Rho float64
	// Cutoff is the interaction range.
	Cutoff float64
}

// DefaultParams returns parameters suited to the benchmark melt with mean
// ion spacing a: contact repulsion comparable to the Coulomb attraction at
// half the spacing.
func DefaultParams(spacing float64) Params {
	return Params{
		A:      30 / spacing,
		Rho:    spacing / 6,
		Cutoff: spacing * 1.5,
	}
}

// Solver computes short-range repulsive potentials and fields over a
// Cartesian process grid.
type Solver struct {
	comm   *vmpi.Comm
	box    particle.Box
	dims   []int
	params Params

	// Scratch reused across Compute calls (the per-step item, split, and
	// result staging used to be freshly allocated every step).
	items   []rec
	targets []int
	own     []rec
	ghosts  []rec
	apos    []float64
	results []result
	grid    *cells.Grid
}

// New creates a short-range solver on the communicator. The cutoff must fit
// within one subdomain layer of the process grid.
func New(c *vmpi.Comm, box particle.Box, params Params) *Solver {
	if !box.Orthorhombic() {
		panic("shortrange: box must be orthorhombic")
	}
	if params.Cutoff <= 0 {
		panic("shortrange: cutoff must be positive")
	}
	dims := vmpi.DimsCreate(c.Size(), 3)
	for d := 0; d < 3; d++ {
		side := box.Lengths()[d] / float64(dims[d])
		if params.Cutoff > side {
			panic("shortrange: cutoff exceeds a subdomain side")
		}
	}
	return &Solver{comm: c, box: box, dims: dims, params: params}
}

// rec is the redistribution record: owner-bound primaries carry a valid
// origin; ghosts are invalid and pre-shifted into the receiving frame.
type rec struct {
	Origin     redist.Index
	X, Y, Z, Q float64
}

// result carries computed values back to the original layout.
type result struct {
	Origin     redist.Index
	Pot        float64
	Fx, Fy, Fz float64
}

// Compute adds the short-range repulsion of the n local particles
// (arbitrary distribution) into pot (length n, potential energy per
// particle) and force (length 3n, the force vector F = −∇U — unlike the
// Coulomb solvers, which return fields to be scaled by the charge).
// Collective.
func (s *Solver) Compute(n int, pos, q, pot, force []float64) {
	c := s.comm
	L := s.box.Lengths()

	// Build primaries + ghost copies, as in the P2NFFT redistribution.
	items := s.items[:0]
	targets := s.targets[:0]
	type gk struct {
		rank       int
		sx, sy, sz int8
	}
	// At most one ghost per 3³−1 neighbor offset, so dedup runs over a
	// fixed-size array instead of a freshly allocated per-particle map.
	var seen [26]gk
	for i := 0; i < n; i++ {
		x, y, z := s.box.Wrap(pos[3*i], pos[3*i+1], pos[3*i+2])
		owner := particle.GridRank(&s.box, s.dims, x, y, z)
		items = append(items, rec{Origin: redist.MakeIndex(c.Rank(), i), X: x, Y: y, Z: z, Q: q[i]})
		targets = append(targets, owner)
		coords := coordsOf(owner, s.dims)
		fl, fh := particle.GridCellBounds(s.dims, coords)
		var lo, hi [3]float64
		for d := 0; d < 3; d++ {
			lo[d] = s.box.Offset[d] + fl[d]*L[d]
			hi[d] = s.box.Offset[d] + fh[d]*L[d]
		}
		p3 := [3]float64{x, y, z}
		nSeen := 0
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					off := [3]int{dx, dy, dz}
					near := true
					for d := 0; d < 3; d++ {
						switch off[d] {
						case -1:
							near = near && p3[d]-lo[d] < s.params.Cutoff
						case 1:
							near = near && hi[d]-p3[d] <= s.params.Cutoff
						}
					}
					if !near {
						continue
					}
					var shift [3]float64
					nb := make([]int, 3)
					ok := true
					for d := 0; d < 3; d++ {
						ncd := coords[d] + off[d]
						if ncd < 0 {
							ncd += s.dims[d]
							shift[d] = L[d]
						} else if ncd >= s.dims[d] {
							ncd -= s.dims[d]
							shift[d] = -L[d]
						}
						if !s.box.Periodic[d] && shift[d] != 0 {
							ok = false
						}
						nb[d] = ncd
					}
					if !ok {
						continue
					}
					nbRank := rankOf(nb, s.dims)
					key := gk{nbRank, sign(shift[0]), sign(shift[1]), sign(shift[2])}
					dup := false
					for k := 0; k < nSeen; k++ {
						if seen[k] == key {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					seen[nSeen] = key
					nSeen++
					items = append(items, rec{Origin: redist.Invalid,
						X: x + shift[0], Y: y + shift[1], Z: z + shift[2], Q: q[i]})
					targets = append(targets, nbRank)
				}
			}
		}
	}
	c.Compute(costs.CellAssign * float64(n))
	s.items, s.targets = items, targets

	pl := redist.NewPlan(c, len(items), redist.ToRank(func(i int) int { return targets[i] }), redist.Options{})
	recv := redist.Execute(pl, items)
	pl.Free()

	// Split owned / ghosts.
	own, ghosts := s.own[:0], s.ghosts[:0]
	for _, r := range recv {
		if r.Origin.Valid() {
			own = append(own, r)
		} else {
			ghosts = append(ghosts, r)
		}
	}
	s.own, s.ghosts = own, ghosts

	// Linked cells over the grown subdomain.
	coords := coordsOf(c.Rank(), s.dims)
	fl, fh := particle.GridCellBounds(s.dims, coords)
	var lo, hi [3]float64
	for d := 0; d < 3; d++ {
		lo[d] = s.box.Offset[d] + fl[d]*L[d] - s.params.Cutoff
		hi[d] = s.box.Offset[d] + fh[d]*L[d] + s.params.Cutoff
	}
	nAll := len(own) + len(ghosts)
	apos := growFloats(s.apos, 3*nAll)
	s.apos = apos
	for i, r := range own {
		apos[3*i], apos[3*i+1], apos[3*i+2] = r.X, r.Y, r.Z
	}
	for j, r := range ghosts {
		i := len(own) + j
		apos[3*i], apos[3*i+1], apos[3*i+2] = r.X, r.Y, r.Z
	}
	results := s.results[:0]
	for _, r := range own {
		results = append(results, result{Origin: r.Origin})
	}
	s.results = results
	if nAll > 0 {
		if s.grid == nil {
			s.grid = &cells.Grid{}
		}
		s.grid.Rebuild(apos, nAll, lo, hi, s.params.Cutoff)
		grid := s.grid
		c.Compute(costs.CellAssign * float64(nAll))
		rc2 := s.params.Cutoff * s.params.Cutoff
		pairs := 0
		nOwn := len(own)
		grid.ForEachPair(func(i, j int) {
			if i >= nOwn && j >= nOwn {
				return
			}
			dx := apos[3*i] - apos[3*j]
			dy := apos[3*i+1] - apos[3*j+1]
			dz := apos[3*i+2] - apos[3*j+2]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 || r2 > rc2 {
				return
			}
			pairs++
			r := math.Sqrt(r2)
			u := s.params.A * math.Exp(-r/s.params.Rho)
			// Repulsive pair force F_i = −∇_i u = (u/ρ)·r̂ pointing away
			// from the partner.
			fr := u / (s.params.Rho * r)
			if i < nOwn {
				results[i].Pot += u
				results[i].Fx += fr * dx
				results[i].Fy += fr * dy
				results[i].Fz += fr * dz
			}
			if j < nOwn {
				results[j].Pot += u
				results[j].Fx -= fr * dx
				results[j].Fy -= fr * dy
				results[j].Fz -= fr * dz
			}
		})
		c.Compute(costs.Pair * float64(pairs))
	}

	// Route results back to the owners.
	pl = redist.NewPlan(c, len(results), redist.ToRank(func(i int) int {
		return results[i].Origin.Rank()
	}), redist.Options{})
	back := redist.Execute(pl, results)
	pl.Free()
	for _, r := range back {
		i := r.Origin.Pos()
		pot[i] += r.Pot
		force[3*i] += r.Fx
		force[3*i+1] += r.Fy
		force[3*i+2] += r.Fz
	}
	c.Compute(costs.Move * float64(len(back)))
}

func coordsOf(r int, dims []int) []int {
	c := make([]int, 3)
	for d := 2; d >= 0; d-- {
		c[d] = r % dims[d]
		r /= dims[d]
	}
	return c
}

func rankOf(coords []int, dims []int) int {
	r := 0
	for d := 0; d < 3; d++ {
		r = r*dims[d] + coords[d]
	}
	return r
}

// growFloats resizes a scratch slice, reallocating only on capacity growth;
// contents are unspecified (callers overwrite every element).
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func sign(v float64) int8 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
