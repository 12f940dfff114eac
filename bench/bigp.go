package main

import (
	"fmt"

	"repro/internal/psort"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// The Figure 10 cell (paperbench figures10.go): every rank holds a fixed
// number of uint64 keys inside its own range, 1-in-8 keys drift by at most
// half a range per step, and a strategy re-establishes the distribution.
// The two workloads use the same rankexec/vmpi layers for opposite things:
// bigp-merge for message rate (a Batcher merge-exchange network, hundreds
// of messages per rank), bigp-nbr for breadth (four times the ranks, twelve
// messages each), so a per-message gain moves one and a per-rank-footprint
// gain the other.
const (
	bigpElemsPerRank = 128
	bigpRangeWidth   = uint64(1) << 20
	bigpSteps        = 3
	bigpMoveShare    = 3 // 1 in 2^3 keys drifts per step
	bigpMergeRanks   = 4096
	bigpNbrRanks     = 16384
)

type bigpInstance struct {
	merge bool
	ranks int
	salt  uint64
	// initial holds every rank's starting keys back to back, generated in
	// set-up so the timed rank body only copies its 128.
	initial []uint64
	// want is the multiset the final distribution must hold: the initial
	// keys drifted bigpSteps times, computed without any redistribution.
	want multiset
}

func newBigP(merge bool, seed int64, quick bool) *bigpInstance {
	w := &bigpInstance{merge: merge, ranks: bigpNbrRanks, salt: splitmix64(uint64(seed))}
	if merge {
		w.ranks = bigpMergeRanks
	}
	if quick {
		w.ranks /= 16
	}
	maxKey := w.maxKey()
	w.initial = make([]uint64, 0, w.ranks*bigpElemsPerRank)
	for r := 0; r < w.ranks; r++ {
		w.initial = append(w.initial, w.keys(r)...)
	}
	for _, k := range w.initial {
		for s := 0; s < bigpSteps; s++ {
			k = w.drift(k, s, maxKey)
		}
		w.want.add(k)
	}
	return w
}

func (w *bigpInstance) world() vmpi.Config { return torusWorld(w.ranks) }

func (w *bigpInstance) work() float64 { return float64(w.ranks * bigpSteps) }

func (w *bigpInstance) maxKey() uint64 { return uint64(w.ranks)*bigpRangeWidth - 1 }

// keys generates rank r's initial keys, locally sorted, inside r's own
// range: the initial distribution is exactly the owner decomposition.
func (w *bigpInstance) keys(r int) []uint64 {
	keys := make([]uint64, bigpElemsPerRank)
	base := uint64(r) * bigpRangeWidth
	for i := range keys {
		keys[i] = base + splitmix64(w.salt^(uint64(r)*bigpElemsPerRank+uint64(i)))%bigpRangeWidth
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// drift returns the key after one step. It depends only on the key value
// and the step, never on which rank holds the element, so the multiset is
// the same whatever the redistribution did. Displacements are clamped at
// the global ends, which keeps every owner change within ±1 rank.
func (w *bigpInstance) drift(k uint64, step int, maxKey uint64) uint64 {
	h := splitmix64(k ^ w.salt ^ (uint64(step+1) << 48))
	if h&(1<<bigpMoveShare-1) != 0 {
		return k
	}
	delta := int64((h >> 8) % (bigpRangeWidth / 2))
	if h&(1<<bigpMoveShare) != 0 {
		delta = -delta
	}
	nk := int64(k) + delta
	if nk < 0 {
		nk = 0
	}
	if nk > int64(maxKey) {
		nk = int64(maxKey)
	}
	return uint64(nk)
}

// bigpRank is one rank's summary of its final keys. Ranks summarise instead
// of handing back 128 keys each so the check adds nothing to the live heap
// the benchmark measures; the pass over the keys is 128 mixes per rank.
type bigpRank struct {
	n           int
	first, last uint64
	set         multiset
	seq         seqHash
	// ordered: the keys are locally sorted; owned: every key lies in this
	// rank's range; fellBack: a neighborhood exchange left the
	// point-to-point backend.
	ordered, owned, fellBack bool
}

func (w *bigpInstance) summarise(rank int, keys []uint64, fellBack bool) bigpRank {
	out := bigpRank{n: len(keys), ordered: true, owned: true, fellBack: fellBack}
	for i, k := range keys {
		if i == 0 {
			out.first = k
		} else if k < out.last {
			out.ordered = false
		}
		out.last = k
		if int(k/bigpRangeWidth) != rank {
			out.owned = false
		}
		out.set.add(k)
		out.seq.add(k)
	}
	return out
}

func (w *bigpInstance) body(tr *tracer) func(c *vmpi.Comm) {
	return func(c *vmpi.Comm) {
		tr.stampStart(c)
		maxKey := w.maxKey()
		lo := c.Rank() * bigpElemsPerRank
		keys := append([]uint64(nil), w.initial[lo:lo+bigpElemsPerRank]...)
		fellBack := false
		key := func(k uint64) uint64 { return k }
		var nbrs []int
		if !w.merge {
			id := tr.rank0(c, "vmpi.CartCreate", "vmpi")
			cart := vmpi.CartCreate(c, []int{c.Size()}, []bool{false})
			tr.end(id)
			nbrs = cart.Neighbors(1)
		}
		for s := 0; s < bigpSteps; s++ {
			for i, k := range keys {
				keys[i] = w.drift(k, s, maxKey)
			}
			if w.merge {
				id := tr.rank0(c, "psort.SortMerge", "psort")
				keys = psort.SortMerge(c, keys, key)
				tr.end(id)
				continue
			}
			elems := keys
			id := tr.rank0(c, "redist.ExchangeNeighborhood", "redist")
			got, used := redist.ExchangeNeighborhood(c, elems,
				redist.ToRank(func(i int) int { return int(elems[i] / bigpRangeWidth) }), nbrs)
			tr.end(id)
			keys = got
			fellBack = fellBack || !used
		}
		c.SetResult(w.summarise(c.Rank(), keys, fellBack))
		tr.stampEnd(c)
	}
}

func (w *bigpInstance) check(st *vmpi.Stats) (Virtual, map[string]float64, error) {
	var v Virtual
	var got multiset
	var seq seqHash
	prev, havePrev := uint64(0), false
	for r, val := range st.Values {
		rk, ok := val.(bigpRank)
		if !ok {
			return v, nil, fmt.Errorf("rank %d returned no result", r)
		}
		switch {
		case rk.fellBack:
			return v, nil, fmt.Errorf("rank %d: neighborhood exchange fell back to the collective backend", r)
		case w.merge && (!rk.ordered || (havePrev && rk.n > 0 && rk.first < prev)):
			return v, nil, fmt.Errorf("rank %d breaks the global order", r)
		case !w.merge && !rk.owned:
			return v, nil, fmt.Errorf("rank %d holds a key another rank owns", r)
		}
		if rk.n > 0 {
			prev, havePrev = rk.last, true
		}
		got.count += rk.set.count
		got.sum += rk.set.sum
		seq.add(uint64(rk.n))
		seq.add(uint64(rk.seq))
	}
	if got != w.want {
		return v, nil, fmt.Errorf("elements not conserved: got %d keys (sum %#x), want %d (sum %#x)",
			got.count, got.sum, w.want.count, w.want.sum)
	}
	v.Digest = seq.String()
	v.setSeconds(st.MaxClock())
	return v, nil, nil
}
