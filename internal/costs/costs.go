// Package costs centralizes the computation cost model: the virtual time
// charged per elementary operation of each kernel.
//
// The virtual MPI runtime (package vmpi) meters communication through a
// network topology model; computation is charged explicitly by the
// algorithms via Comm.Compute using the constants below. The constants are
// calibrated to a ~3 GHz commodity core (JuRoPA class); slower machines are
// modelled with vmpi.Config.ComputeScale (e.g. ~1.8 for a Blue Gene/Q A2
// core at 1.6 GHz).
//
// Absolute values matter less than ratios: the reproduction targets the
// shape of the paper's figures (who wins, where crossovers fall), which is
// governed by the relative weight of computation vs. communication.
package costs

import "math"

// Per-operation costs in seconds.
const (
	// Compare is one key comparison plus loop overhead in sorting.
	Compare = 4e-9
	// Move is moving one particle record (tens of bytes) in memory.
	Move = 2e-9
	// RedistElem is the per-element handling cost for an element that
	// crosses process boundaries in the fine-grained redistribution
	// operation: target computation, packing into per-destination send
	// buffers (MPI derived datatypes), the alltoallv bookkeeping, and
	// unpacking at the receiver. The constant is calibrated to the paper's
	// own measurements: the redistribution phases of Figs. 7/8 spend on
	// the order of 10 ms on ~3000 elements per rank, i.e. microseconds per
	// moved element — far above raw memory bandwidth, reflecting the
	// software path of element-wise MPI redistribution at scale. Elements
	// that stay on their rank cost only Move.
	RedistElem = 2e-6
	// Pair is one near-field pair interaction (erfc or 1/r force+potential).
	Pair = 35e-9
	// MultipoleTerm is one term of a multipole expansion operation.
	MultipoleTerm = 6e-9
	// butterfly is one complex FFT butterfly.
	butterfly = 5e-9
	// CellAssign is binning one particle into a cell or grid structure.
	CellAssign = 6e-9
	// MeshPoint is one charge-assignment or interpolation mesh update.
	MeshPoint = 8e-9
	// Integrate is one leapfrog update of a single particle.
	Integrate = 12e-9
)

// SortTime returns the virtual time of a comparison sort of n elements.
func SortTime(n int) float64 {
	if n <= 1 {
		return float64(n) * Move
	}
	return float64(n)*math.Log2(float64(n))*Compare + float64(n)*Move
}

// AdaptiveSortTime returns the virtual time of an adaptive merge sort
// (timsort-like, as used by the paper's sorting library [ref 15]) of n
// elements containing the given number of descending breaks: nearly sorted
// inputs cost a single scan; otherwise the cost grows with the number of
// natural runs.
func AdaptiveSortTime(n, breaks int) float64 {
	if n <= 1 {
		return float64(n) * Move
	}
	scan := float64(n) * Compare
	if breaks == 0 {
		return scan
	}
	return scan + float64(n)*math.Log2(float64(breaks)+2)*Compare + float64(n)*Move
}

// MergeTime returns the virtual time of merging sorted runs totalling n
// elements from k runs.
func MergeTime(n, k int) float64 {
	if n <= 0 {
		return 0
	}
	f := math.Log2(float64(k))
	if f < 1 {
		f = 1
	}
	return float64(n)*f*Compare + float64(n)*Move
}

// FFTTime returns the virtual time of a complex FFT of length n.
func FFTTime(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n) * math.Log2(float64(n)) * butterfly
}
