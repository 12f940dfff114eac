package fft

import (
	"math"
	"math/bits"
	"sync"
)

// Compute-plan caching.
//
// Transform used to rebuild its bit-reversal permutation implicitly (one
// bits.Reverse64 per element) and its twiddle factors (one complex
// multiplication chain per butterfly stage) on every call. The solvers call
// Transform thousands of times per run on a handful of distinct sizes, so
// both are now precomputed once per size and cached for the life of the
// process.
//
// Determinism contract: the cached tables are generated by the *same*
// recurrence the inline code used — w starts at 1 and is multiplied by
// cos/sin(±2π/size) per step — so every butterfly sees bit-for-bit the same
// twiddle value it saw before caching, and transform outputs are unchanged.
// Forward and inverse tables are built by separate runs of the recurrence
// (not by conjugation), again to keep the values bit-identical to the
// uncached code paths.

// plan holds the precomputed tables for one transform size.
type plan struct {
	n int
	// swaps lists the bit-reversal permutation's transpositions as pairs
	// i, j with j the bit reverse of i and i < j, in increasing i.
	swaps []int32
	// fwd[s] and inv[s] are the twiddle factors of butterfly stage s
	// (size = 2<<s), with size/2 entries each.
	fwd [][]complex128
	inv [][]complex128
}

// plans caches one plan per power-of-two size. sync.Map keeps the lookup
// lock-free on the hot path; racing builders produce identical plans, so
// whichever one is stored is correct.
var plans sync.Map

// planFor returns the cached plan for a power-of-two size n ≥ 1.
func planFor(n int) *plan {
	if n&(n-1) != 0 {
		panic("fft: length must be a power of two")
	}
	if v, ok := plans.Load(n); ok {
		return v.(*plan)
	}
	p := buildPlan(n)
	v, _ := plans.LoadOrStore(n, p)
	return v.(*plan)
}

// buildPlan computes the tables for size n with the recurrences of the
// original in-line transform (see the package comment above).
func buildPlan(n int) *plan {
	p := &plan{n: n}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		if j := int32(bits.Reverse64(uint64(i)) >> shift); int32(i) < j {
			p.swaps = append(p.swaps, int32(i), j)
		}
	}
	for size := 2; size <= n; size <<= 1 {
		p.fwd = append(p.fwd, twiddles(size, -1))
		p.inv = append(p.inv, twiddles(size, 1))
	}
	return p
}

// twiddles runs the stage recurrence for one direction (sign -1 forward,
// +1 inverse).
func twiddles(size int, sign float64) []complex128 {
	half := size / 2
	tw := make([]complex128, half)
	ang := sign * 2 * math.Pi / float64(size)
	wstep := complex(math.Cos(ang), math.Sin(ang))
	w := complex(1, 0)
	for k := 0; k < half; k++ {
		tw[k] = w
		w *= wstep
	}
	return tw
}
