package main

import (
	"fmt"
	"unsafe"

	"repro/internal/redist"
	"repro/internal/vmpi"
)

// exchange-dense scatters fixed-size records to key-hashed ranks through
// redist.Plan: the dense all-to-all path and its bounded-rounds twin, which
// ROADMAP 2 wants collapsed into one routine and ROADMAP 3 wants under every
// solver exchange. Each iteration alternates the two in one world so either
// path getting slower or hungrier shows.
const (
	denseRanks     = 512
	denseRecsPer   = 2048
	denseExchanges = 4
	denseBudget    = 16 << 10 // about 1/4 of the unbounded staging peak
)

// denseRec is one 32-byte record; only key routes it.
type denseRec struct {
	key     uint64
	payload [3]uint64
}

const denseRecordSize = int(unsafe.Sizeof(denseRec{}))

type denseInstance struct {
	ranks, recs int
	salt        uint64
	want        multiset
}

func newDense(seed int64, quick bool) *denseInstance {
	w := &denseInstance{ranks: denseRanks, recs: denseRecsPer, salt: splitmix64(uint64(seed) + 0x5eed)}
	if quick {
		w.ranks, w.recs = denseRanks/16, denseRecsPer/4
	}
	for r := 0; r < w.ranks; r++ {
		for i := 0; i < w.recs; i++ {
			w.want.add(w.key(r, i))
		}
	}
	return w
}

func (w *denseInstance) world() vmpi.Config { return torusWorld(w.ranks) }

func (w *denseInstance) work() float64 { return float64(w.ranks * denseExchanges) }

func (w *denseInstance) key(rank, i int) uint64 {
	return splitmix64(w.salt ^ uint64(rank*w.recs+i))
}

// owner is the rank a key belongs to after exchange x.
func (w *denseInstance) owner(key uint64, x int) int {
	return int(splitmix64(key+uint64(x)) % uint64(w.ranks))
}

// denseRank is one rank's summary of its final records plus what its plans
// reported.
type denseRank struct {
	n      int
	set    multiset
	seq    seqHash
	owned  bool
	peak   int64 // largest Plan.PeakBytes over the exchanges
	rounds int   // Plan.Rounds of the budgeted plan
}

func (w *denseInstance) body(tr *tracer) func(c *vmpi.Comm) {
	return func(c *vmpi.Comm) {
		tr.stampStart(c)
		items := make([]denseRec, w.recs)
		for i := range items {
			k := w.key(c.Rank(), i)
			items[i] = denseRec{key: k, payload: [3]uint64{k, uint64(c.Rank()), uint64(i)}}
		}
		out := denseRank{owned: true}
		for x := 0; x < denseExchanges; x++ {
			opts, exec := redist.Options{MaxBytes: -1}, "redist.Execute.unbounded"
			if x%2 == 1 {
				opts, exec = redist.Options{MaxBytes: denseBudget}, "redist.Execute.budget"
			}
			src := items
			id := tr.rank0(c, "redist.NewPlan", "redist")
			plan := redist.NewPlan(c, len(src),
				redist.ToRank(func(i int) int { return w.owner(src[i].key, x) }), opts)
			tr.end(id)
			id = tr.rank0(c, exec, "redist")
			items = redist.Execute(plan, src)
			tr.end(id)
			if p := plan.PeakBytes(); p > out.peak {
				out.peak = p
			}
			if plan.Bounded() {
				out.rounds = plan.Rounds(denseRecordSize)
			}
			plan.Free()
		}
		out.n = len(items)
		for _, rec := range items {
			if w.owner(rec.key, denseExchanges-1) != c.Rank() || rec.payload[0] != rec.key {
				out.owned = false
			}
			out.set.add(rec.key)
			out.seq.add(rec.key)
		}
		c.SetResult(out)
		tr.stampEnd(c)
	}
}

func (w *denseInstance) check(st *vmpi.Stats) (Virtual, map[string]float64, error) {
	var v Virtual
	var got multiset
	var seq seqHash
	layer := map[string]float64{}
	for r, val := range st.Values {
		rk, ok := val.(denseRank)
		if !ok {
			return v, nil, fmt.Errorf("rank %d returned no result", r)
		}
		if !rk.owned {
			return v, nil, fmt.Errorf("rank %d holds a record another rank owns, or a damaged one", r)
		}
		got.count += rk.set.count
		got.sum += rk.set.sum
		seq.add(uint64(rk.n))
		seq.add(uint64(rk.seq))
		if p := float64(rk.peak); p > layer["redist.peak_staged_bytes"] {
			layer["redist.peak_staged_bytes"] = p
		}
		if n := float64(rk.rounds); n > layer["redist.rounds"] {
			layer["redist.rounds"] = n
		}
	}
	if got != w.want {
		return v, nil, fmt.Errorf("elements not conserved: got %d records (sum %#x), want %d (sum %#x)",
			got.count, got.sum, w.want.count, w.want.sum)
	}
	v.Digest = seq.String()
	v.setSeconds(st.MaxClock())
	return v, layer, nil
}
