// Package pnfft implements a parallel Ewald-split particle-mesh solver in
// the style of the ScaFaCoS P2NFFT method (paper §II-C): the interaction is
// split into a short-range real-space part, computed with a linked cell
// algorithm over a uniform Cartesian-grid domain decomposition with ghost
// particles at subdomain boundaries, and a long-range Fourier-space part,
// computed on a mesh with distributed FFTs.
//
// The Fourier part follows the P3M construction: B-spline charge
// assignment, an Ewald influence function with spline deconvolution, ik
// differentiation for fields, and spline back-interpolation. It is
// validated against classic Ewald summation (package refsolve).
package pnfft

import (
	"math"
)

// splineWeights computes the assignment weights of a particle at mesh
// coordinate u (in units of mesh spacing) for the given spline order. It
// returns the first mesh index i0; w[k] is the weight of mesh point i0+k.
// Supported orders: 2 (cloud-in-cell) and 3 (triangular-shaped cloud).
//
//parlint:hotalloc
func splineWeights(order int, u float64, w []float64) (i0 int) {
	switch order {
	case 2:
		i0 = int(math.Floor(u))
		f := u - float64(i0)
		w[0] = 1 - f
		w[1] = f
	case 3:
		i0 = int(math.Floor(u + 0.5)) // nearest mesh point
		t := u - float64(i0)
		w[0] = 0.5 * (0.5 - t) * (0.5 - t)
		w[1] = 0.75 - t*t
		w[2] = 0.5 * (0.5 + t) * (0.5 + t)
		i0--
	default:
		panic("pnfft: unsupported spline order")
	}
	return i0
}

// splineFourier returns the Fourier transform factor U of the assignment
// spline for integer mode m on an n-point mesh: sinc(πm/n)^order.
func splineFourier(order, m, n int) float64 {
	if m == 0 {
		return 1
	}
	x := math.Pi * float64(m) / float64(n)
	s := math.Sin(x) / x
	return math.Pow(s, float64(order))
}

// signedMode maps a DFT index k ∈ [0,n) to its signed mode in
// (−n/2, n/2]; the Nyquist mode n/2 is reported as n/2.
func signedMode(k, n int) int {
	if k > n/2 {
		return k - n
	}
	return k
}

// influence computes the P3M influence function for the signed integer
// mode (mx, my, mz) on an n³ mesh over a cubic box of side l:
//
//	g = (4π/V) exp(−k²/4α²)/k² / U(k)²
//
// with one deconvolution factor U for charge assignment and one for
// back-interpolation. The zero mode and Nyquist modes return 0.
//
//parlint:hotalloc
func influence(mx, my, mz, n int, l, alpha float64, order int) float64 {
	if mx == 0 && my == 0 && mz == 0 {
		return 0
	}
	// Zero the Nyquist modes: ik differentiation is ill-defined there and
	// their Gaussian weight is negligible for a properly sized mesh.
	if abs(mx) == n/2 || abs(my) == n/2 || abs(mz) == n/2 {
		return 0
	}
	g := 2 * math.Pi / l
	kx, ky, kz := g*float64(mx), g*float64(my), g*float64(mz)
	k2 := kx*kx + ky*ky + kz*kz
	vol := l * l * l
	u := splineFourier(order, mx, n) * splineFourier(order, my, n) * splineFourier(order, mz, n)
	return 4 * math.Pi / vol * math.Exp(-k2/(4*alpha*alpha)) / k2 / (u * u)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// nextPow2 returns the smallest power of two ≥ n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
