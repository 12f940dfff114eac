// Package particle defines particle systems, their generation, and their
// initial distribution among parallel processes.
//
// Particle data is stored in structure-of-arrays form with flat coordinate
// slices of length 3N (x0 y0 z0 x1 y1 z1 ...), matching the array-based
// interface of the ScaFaCoS library the paper couples against.
package particle

import (
	"fmt"
	"math"
)

// Box describes the three-dimensional system box: an offset vector and
// three base vectors, plus per-dimension periodicity (paper §II-A,
// fcs_set_common). Solvers in this repository require an orthorhombic box
// (diagonal base vectors).
type Box struct {
	Offset   [3]float64
	Base     [3][3]float64
	Periodic [3]bool
}

// NewCubicBox returns a cubic box of the given side length at the origin.
func NewCubicBox(side float64, periodic bool) Box {
	var b Box
	for d := 0; d < 3; d++ {
		b.Base[d][d] = side
		b.Periodic[d] = periodic
	}
	return b
}

// Orthorhombic reports whether the base vectors are axis-aligned.
func (b *Box) Orthorhombic() bool {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j && b.Base[i][j] != 0 {
				return false
			}
		}
	}
	return true
}

// Lengths returns the box edge lengths. It panics for non-orthorhombic
// boxes.
func (b *Box) Lengths() [3]float64 {
	b.mustOrtho()
	return [3]float64{b.Base[0][0], b.Base[1][1], b.Base[2][2]}
}

// Volume returns the box volume. It panics for non-orthorhombic boxes.
func (b *Box) Volume() float64 {
	l := b.Lengths()
	return l[0] * l[1] * l[2]
}

func (b *Box) mustOrtho() {
	if !b.Orthorhombic() {
		panic("particle: operation requires an orthorhombic box")
	}
}

// ToUnit maps a position to fractional box coordinates in [0,1) for
// periodic dimensions (wrapping) and clamped to [0,1] otherwise.
func (b *Box) ToUnit(x, y, z float64) (ux, uy, uz float64) {
	l := b.Lengths()
	u := [3]float64{
		(x - b.Offset[0]) / l[0],
		(y - b.Offset[1]) / l[1],
		(z - b.Offset[2]) / l[2],
	}
	for d := 0; d < 3; d++ {
		if b.Periodic[d] {
			u[d] -= math.Floor(u[d])
			if u[d] >= 1 { // guard against -1e-17 wrapping to 1.0
				u[d] = 0
			}
		} else if u[d] < 0 {
			u[d] = 0
		} else if u[d] > 1 {
			u[d] = 1
		}
	}
	return u[0], u[1], u[2]
}

// Wrap folds a position into the primary box along periodic dimensions.
func (b *Box) Wrap(x, y, z float64) (wx, wy, wz float64) {
	l := b.Lengths()
	p := [3]float64{x, y, z}
	for d := 0; d < 3; d++ {
		if b.Periodic[d] {
			r := (p[d] - b.Offset[d]) / l[d]
			r -= math.Floor(r)
			if r >= 1 {
				r = 0
			}
			p[d] = b.Offset[d] + r*l[d]
		}
	}
	return p[0], p[1], p[2]
}

// MinImage returns the minimum-image displacement of d along periodic
// dimensions.
func (b *Box) MinImage(dx, dy, dz float64) (float64, float64, float64) {
	l := b.Lengths()
	d := [3]float64{dx, dy, dz}
	for i := 0; i < 3; i++ {
		if b.Periodic[i] {
			d[i] -= l[i] * math.Round(d[i]/l[i])
		}
	}
	return d[0], d[1], d[2]
}

// System is a complete (global) particle system: positions, charges, and
// initial velocities for N particles.
type System struct {
	Box Box
	N   int
	Pos []float64 // length 3N
	Q   []float64 // length N
	Vel []float64 // length 3N
}

// NewSystem allocates an empty system of n particles in the given box.
func NewSystem(box Box, n int) *System {
	return &System{
		Box: box,
		N:   n,
		Pos: make([]float64, 3*n),
		Q:   make([]float64, n),
		Vel: make([]float64, 3*n),
	}
}

// Validate checks structural invariants.
func (s *System) Validate() error {
	if len(s.Pos) != 3*s.N || len(s.Q) != s.N || len(s.Vel) != 3*s.N {
		return fmt.Errorf("particle: inconsistent array lengths for N=%d: pos %d, q %d, vel %d",
			s.N, len(s.Pos), len(s.Q), len(s.Vel))
	}
	return nil
}

// TotalCharge returns the sum of all charges.
func (s *System) TotalCharge() float64 {
	t := 0.0
	for _, q := range s.Q {
		t += q
	}
	return t
}

// Local is one process's share of a particle system, in the array layout of
// the coupling library: positions and charges are solver inputs; potentials
// and fields are solver outputs; velocities and accelerations are
// application-specific additional data that solvers do not touch (paper
// §III-B) and that method B must resort explicitly.
type Local struct {
	Box Box
	// N is the current number of local particles; Cap is the maximum the
	// arrays can hold (the "maximum number of particles that can be stored
	// in the local particle data arrays" of fcs_run).
	N, Cap int
	Pos    []float64 // 3*Cap
	Q      []float64 // Cap
	Pot    []float64 // Cap
	Field  []float64 // 3*Cap
	Vel    []float64 // 3*Cap, application data
	Acc    []float64 // 3*Cap, application data
}

// NewLocal allocates a local particle store with the given capacity.
func NewLocal(box Box, capacity int) *Local {
	return &Local{
		Box:   box,
		Cap:   capacity,
		Pos:   make([]float64, 3*capacity),
		Q:     make([]float64, capacity),
		Pot:   make([]float64, capacity),
		Field: make([]float64, 3*capacity),
		Vel:   make([]float64, 3*capacity),
		Acc:   make([]float64, 3*capacity),
	}
}

// Append adds one particle; it panics when capacity is exhausted.
func (l *Local) Append(x, y, z, q, vx, vy, vz float64) {
	if l.N >= l.Cap {
		panic("particle: Local capacity exhausted")
	}
	i := l.N
	l.Pos[3*i], l.Pos[3*i+1], l.Pos[3*i+2] = x, y, z
	l.Q[i] = q
	l.Vel[3*i], l.Vel[3*i+1], l.Vel[3*i+2] = vx, vy, vz
	l.N++
}

// ActivePos returns the position slice of the live particles.
func (l *Local) ActivePos() []float64 { return l.Pos[:3*l.N] }

// ActiveQ returns the charge slice of the live particles.
func (l *Local) ActiveQ() []float64 { return l.Q[:l.N] }

// ActivePot returns the potential slice of the live particles.
func (l *Local) ActivePot() []float64 { return l.Pot[:l.N] }
