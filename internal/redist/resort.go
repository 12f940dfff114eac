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
// in the paper. It rides the same Plan and the same round loop as the
// dense exchange (see executeResort).

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

// resortState is a rank's side of a resort: its target positions and its
// values, staged as two sources of one dense exchange.
type resortState[T any] struct {
	pos *source[int64]
	val *source[T]
}

// executeResort ships every occurrence's target position and values to its
// destination, two payloads of one dense exchange, and scatters what
// arrives into the output permutation. Each occurrence stages 8 + stride
// element bytes; under a budget both go to each destination in turn on tags
// 211/212, without one as two pairwise all-to-alls. The positional scatter
// makes the result independent of the schedule.
func executeResort[T any](p *Plan, vals []T, stride int, indices []Index, nNew int) []T {
	c := p.c
	c.Compute(p.sendCost() + costs.Move*float64(len(indices)*stride))
	elem := int(unsafe.Sizeof(*new(T)))
	peak := sendRounds(len(p.order), p.maxCounts, 8+stride*elem, p.budget, func(k int) int { return p.counts[k] })

	// The resort is always dense: staging-order slot == rank.
	occ := func(k int) []int32 { return p.occIdx[p.occOff[k]:p.occOff[k+1]] }
	valOff := make([]int, len(p.occOff))
	for k, o := range p.occOff {
		valOff[k] = o * stride
	}
	op, tags := "redist.Resort", [2]int{}
	if p.Bounded() {
		op, tags = "redist.Resort budgeted", [2]int{tagResortPos, tagResortVal}
	}
	st := &resortState[T]{
		pos: stage(p.order, -1, tags[0], p.occOff, func(buf []int64, k int) []int64 {
			for _, i := range occ(k) {
				buf = append(buf, int64(indices[i].Pos()))
			}
			return buf
		}),
		val: stage(p.order, -1, tags[1], valOff, func(buf []T, k int) []T {
			for _, i := range occ(k) {
				buf = append(buf, vals[int(i)*stride:(int(i)+1)*stride]...)
			}
			return buf
		}),
	}
	vmpi.Replay(c, op, st, func(h *vmpi.Replayer, all []*resortState[T]) {
		pos, val := make([]*source[int64], len(all)), make([]*source[T], len(all))
		for r, s := range all {
			pos[r], val[r] = s.pos, s.val
		}
		posBytes := func(r, k int) int { return 8 * pos[r].size(k) }
		valBytes := func(r, k int) int { return elem * val[r].size(k) }
		if pos[0].tag == 0 {
			h.Alltoall(posBytes)
			h.Alltoall(valBytes)
		} else {
			h.AlltoallLinear(func(int) []int { return pos[0].order }, []int{pos[0].tag, val[0].tag},
				func(r, k, i int) int { return [2]int{posBytes(r, k), valBytes(r, k)}[i] })
		}
		moveGroups(pos)
		moveGroups(val)
	})
	meterPeak(p, peak)

	out := make([]T, nNew*stride)
	placed := make([]bool, nNew)
	cost := 0.0
	for k := range st.pos.in {
		pos := st.pos.from(k)
		scatterResort(out, placed, pos, st.val.from(k), stride, nNew)
		cost += p.elemCost(k) * float64(len(pos))
	}
	c.Compute(cost + costs.Move*float64(nNew*stride))
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
	return resort(c, where, 1, origin, nOrig)
}
