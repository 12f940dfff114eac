package redist

import (
	"fmt"
	"unsafe"

	"repro/internal/costs"
	"repro/internal/vmpi"
)

// Resort implements the subsequent reordering and redistribution of
// additional application-specific particle data (velocities, accelerations)
// for method B (paper §III-B): each solver produces resort indices — one
// per original local particle, giving the target process and target
// position where that particle ended up — and the application calls
// ResortFloats / ResortInts to move data it owns into the solver's changed
// order and distribution.
//
// The implementation is the fine-grained redistribution operation followed
// by a permutation according to the target positions, exactly as described
// in the paper. It rides the same Plan and the same round loop as Exchange
// (see executeResort).

const (
	tagResortPos = 211
	tagResortVal = 212
)

// ResortFloats redistributes vals — stride consecutive float64 per original
// particle i, in original order — according to indices, and returns the
// values in the changed order: the returned slice has length nNew*stride
// and element indices[i] (.Pos on .Rank) holds particle i's values. nNew is
// the local particle count after the solver's redistribution. Entries with
// invalid indices are dropped.
func ResortFloats(c *vmpi.Comm, vals []float64, stride int, indices []Index, nNew int) []float64 {
	return resort(c, vals, stride, indices, nNew)
}

// ResortInts is ResortFloats for int64 data.
func ResortInts(c *vmpi.Comm, vals []int64, stride int, indices []Index, nNew int) []int64 {
	return resort(c, vals, stride, indices, nNew)
}

// ResortIndices is ResortFloats for Index-typed data (used internally to
// invert permutations).
func ResortIndices(c *vmpi.Comm, vals []Index, stride int, indices []Index, nNew int) []Index {
	return resort(c, vals, stride, indices, nNew)
}

func resort[T any](c *vmpi.Comm, vals []T, stride int, indices []Index, nNew int) []T {
	if stride < 1 {
		panic("redist: resort stride must be >= 1")
	}
	n := len(indices)
	if len(vals) != n*stride {
		panic(fmt.Sprintf("redist: resort values length %d != %d particles * stride %d", len(vals), n, stride))
	}
	p := c.Size()
	pl := NewPlan(c, n, func(i int, dst []int) []int {
		idx := indices[i]
		if !idx.Valid() {
			return dst
		}
		r := idx.Rank()
		if r < 0 || r >= p {
			panic(fmt.Sprintf("redist: resort index rank %d out of range (size %d)", r, p))
		}
		return append(dst, r)
	}, Options{})
	out := executeResort(pl, vals, stride, indices, nNew)
	pl.Free()
	return out
}

// gatherResort builds the paired position/value send buffers for
// staging-order slot k (rank p.order[k]) from the plan's routing: one
// int64 target position and stride values per occurrence, in local order.
// Both nil when the rank receives nothing.
func gatherResort[T any](p *Plan, vals []T, stride int, indices []Index, k int) ([]int64, []T) {
	lo, hi := p.occOff[k], p.occOff[k+1]
	if lo == hi {
		return nil, nil
	}
	pos := make([]int64, 0, hi-lo)
	val := make([]T, 0, (hi-lo)*stride)
	for _, i := range p.occIdx[lo:hi] {
		pos = append(pos, int64(indices[i].Pos()))
		val = append(val, vals[int(i)*stride:(int(i)+1)*stride]...)
	}
	return pos, val
}

// scatterResort places one source rank's positions/values into the output
// permutation, with the double-write and range checks of the classic
// implementation.
func scatterResort[T any](out []T, placed []bool, pos []int64, val []T, stride, nNew int) {
	if len(val) != len(pos)*stride {
		panic("redist: resort position/value length mismatch")
	}
	for k, pv := range pos {
		if pv < 0 || int(pv) >= nNew {
			panic(fmt.Sprintf("redist: resort target position %d out of range (nNew %d)", pv, nNew))
		}
		if placed[pv] {
			panic(fmt.Sprintf("redist: resort target position %d written twice", pv))
		}
		placed[pv] = true
		copy(out[int(pv)*stride:(int(pv)+1)*stride], val[k*stride:(k+1)*stride])
	}
}

// executeResort ships every occurrence's target position and values to its
// destination and scatters what arrives into the output permutation. Each
// occurrence costs 8 position bytes plus stride payload bytes against the
// budget; under one, each round relinquishes its paired buffers on tags
// 211/212 before the next stages, and without one the two part sets go
// through two pairwise collectives. The positional scatter makes the
// result independent of the transport.
func executeResort[T any](p *Plan, vals []T, stride int, indices []Index, nNew int) []T {
	c := p.c
	size := c.Size()
	self := c.Rank()
	c.Compute(p.sendCost() + costs.Move*float64(len(indices)*stride))

	// recvPos[r]/recvVal[r] are source rank r's paired blocks (the resort
	// is always dense, so staging-order slot == rank). The buffers are
	// freshly built per destination: relinquished without a copy.
	recvPos := make([][]int64, size)
	recvVal := make([][]T, size)
	if !p.Bounded() {
		for d := 0; d < size; d++ {
			recvPos[d], recvVal[d] = gatherResort(p, vals, stride, indices, d)
		}
		recvPos = vmpi.AlltoallOwned(c, recvPos)
		recvVal = vmpi.AlltoallOwned(c, recvVal)
	} else {
		elem := 8 + stride*int(unsafe.Sizeof(*new(T)))
		peak := sendRounds(size, p.maxCounts, elem, p.budget, func(d int) int {
			pos, val := gatherResort(p, vals, stride, indices, d)
			n := len(pos)
			if d == self {
				recvPos[d], recvVal[d] = pos, val
			} else {
				vmpi.SendOwned(c, pos, d, tagResortPos)
				vmpi.SendOwned(c, val, d, tagResortVal)
			}
			return n
		})
		for src := 0; src < size; src++ {
			if src != self {
				recvPos[src] = vmpi.Recv[int64](c, src, tagResortPos)
				recvVal[src] = vmpi.Recv[T](c, src, tagResortVal)
			}
		}
		meterPeak(p, peak)
	}

	out := make([]T, nNew*stride)
	placed := make([]bool, nNew)
	for r := 0; r < size; r++ {
		scatterResort(out, placed, recvPos[r], recvVal[r], stride, nNew)
	}
	c.Compute(recvCost(p, recvPos, -1) + costs.Move*float64(nNew*stride))
	vmpi.ReleaseBlocks(recvPos)
	vmpi.ReleaseBlocks(recvVal)
	return out
}

// InvertIndices converts between the two directions of a particle
// redistribution. Given, for each particle now held locally (in its changed
// position j), the origin index (original rank and position), it returns,
// distributed in the original layout, the resort index of every original
// particle (the changed rank and position it moved to). nOrig is the local
// particle count in the original distribution.
//
// Origin entries equal to Invalid (ghosts) are skipped. Applying
// InvertIndices twice returns the original index set (an involution), which
// is how the FMM and P2NFFT solvers create resort indices from the
// bookkeeping they already maintain for method A's restore step (§III-B,
// Fig. 5).
func InvertIndices(c *vmpi.Comm, origin []Index, nOrig int) []Index {
	where := make([]Index, len(origin))
	for j := range origin {
		where[j] = MakeIndex(c.Rank(), j)
	}
	return ResortIndices(c, where, 1, origin, nOrig)
}
