package paperbench

import (
	"fmt"
	"strings"

	"repro/internal/psort"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// --- Figure 10: redistribution strategies at paper-scale rank counts ----
//
// The paper's evaluation stops where the full MD configurations become
// expensive to simulate; Figure 10 extends the strategy comparison of §III
// to the machine sizes the paper targets (64 … 16384 processes) with a
// weak-scaling synthetic workload that isolates the redistribution step
// itself: every rank holds a fixed number of uint64-keyed elements, the
// keys drift slightly each step (almost sorted data, the regime both
// methods are designed for), and the strategies re-establish the
// distribution. Compared are
//
//   - merge sort: psort.SortMerge, Batcher's merge-exchange network with
//     the header fast path that skips exchanges of already ordered pairs;
//   - neighborhood exchange: redist.ExchangeNeighborhood over the ±1
//     neighbors of a 1-D non-periodic Cartesian topology, the P2NFFT
//     §III-B communication pattern.
//
// The reported number is the steady-state cost of one redistribution step,
// max-reduced over ranks — the quantity that bounds an MD step at scale.
// Element counts per rank are constant, so rank counts are directly
// comparable (weak scaling).

const (
	// fig10ElemsPerRank is the per-rank element count (weak scaling).
	fig10ElemsPerRank = 128
	// fig10RangeWidth is the key-range width owned by each rank. Drift is
	// bounded by half a range, so an element's owner changes by at most
	// ±1 — exactly the neighborhood the exchange strategy covers.
	fig10RangeWidth = uint64(1) << 20
	// fig10Steps is the number of drift+redistribute steps; the last step
	// is the steady-state measurement.
	fig10Steps = 3
	// fig10MoveShare selects 1-in-2^fig10MoveShare elements to drift per
	// step (the paper's almost sorted regime: most data stays put).
	fig10MoveShare = 3
)

// Fig10DefaultRanks is the Figure 10 sweep at the paper's machine sizes.
func Fig10DefaultRanks() []int { return []int{64, 256, 1024, 4096, 16384} }

// Fig10Point is one x-position of Figure 10: the steady-state per-step
// redistribution cost at a rank count for both strategies.
type Fig10Point struct {
	Ranks        int
	Merge        float64
	Neighborhood float64
}

// splitmix64 is the SplitMix64 mixer; Figure 10 uses it for deterministic,
// location-independent key generation and drift.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fig10Keys generates rank r's initial keys: fig10ElemsPerRank pseudo-random
// keys inside r's own range, locally sorted, so the initial global
// distribution is exactly the owner decomposition.
func fig10Keys(r int) []uint64 {
	keys := make([]uint64, fig10ElemsPerRank)
	base := uint64(r) * fig10RangeWidth
	for i := range keys {
		keys[i] = base + splitmix64(uint64(r)*fig10ElemsPerRank+uint64(i))%fig10RangeWidth
	}
	// Insertion sort: tiny n, and it keeps the figure free of package sort.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// fig10Drift returns the key after one drift step. The decision and
// displacement depend only on the key value and the step index, never on
// which rank currently holds the element, so both strategies redistribute
// the identical multiset of keys every step. Displacements are bounded by
// half a range width and clamped at the global ends (no wraparound), which
// keeps every owner change within ±1 rank.
func fig10Drift(k uint64, step int, maxKey uint64) uint64 {
	h := splitmix64(k ^ (uint64(step+1) << 48))
	if h&(1<<fig10MoveShare-1) != 0 {
		return k
	}
	delta := int64((h >> 8) % (fig10RangeWidth / 2))
	if h&(1<<fig10MoveShare) != 0 {
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

// fig10Body builds the per-rank experiment: drift, redistribute with the
// strategy, and record each step's virtual-time delta.
func fig10Body(merge bool) func(c *vmpi.Comm) {
	return func(c *vmpi.Comm) {
		p := c.Size()
		maxKey := uint64(p)*fig10RangeWidth - 1
		elems := fig10Keys(c.Rank())
		key := func(k uint64) uint64 { return k }
		var nbrs []int
		if !merge {
			cart := vmpi.CartCreate(c, []int{p}, []bool{false})
			nbrs = cart.Neighbors(1)
		}
		times := make([]float64, 0, fig10Steps)
		for s := 0; s < fig10Steps; s++ {
			for i, k := range elems {
				elems[i] = fig10Drift(k, s, maxKey)
			}
			t0 := c.Time()
			if merge {
				elems = psort.SortMerge(c, elems, key)
			} else {
				var used bool
				elems, used = redist.ExchangeNeighborhood(c, elems,
					redist.ToRank(func(i int) int { return int(elems[i] / fig10RangeWidth) }),
					nbrs)
				if !used {
					// Drift is bounded to ±1 owner by construction; a
					// fallback means the workload generator is broken.
					panic("paperbench: figure 10 neighborhood exchange fell back to collective")
				}
			}
			times = append(times, c.Time()-t0)
		}
		c.SetResult(times)
	}
}

// fig10Run executes one (machine, rank count, strategy) cell.
func fig10Run(machine Machine, ranks int, merge bool) *vmpi.Stats {
	return vmpi.Run(vmpi.Config{
		Ranks:        ranks,
		Model:        machine.Model(ranks),
		ComputeScale: machine.ComputeScale,
		Workers:      execWorkers,
	}, fig10Body(merge))
}

// fig10Steady reduces a cell's steady-state (last) step cost over ranks.
func fig10Steady(st *vmpi.Stats) float64 {
	steady := 0.0
	for _, v := range st.Values {
		times := v.([]float64)
		if t := times[len(times)-1]; t > steady {
			steady = t
		}
	}
	return steady
}

// Fig10 sweeps the rank counts on one machine. All strategy cells are
// flattened into one scheduler batch, so they fill the worker pool.
func Fig10(machine Machine, rankList []int) []Fig10Point {
	var jobs []func() float64
	for _, p := range rankList {
		p := p
		jobs = append(jobs,
			func() float64 { return fig10Steady(fig10Run(machine, p, true)) },
			func() float64 { return fig10Steady(fig10Run(machine, p, false)) },
		)
	}
	vals := runJobs(jobs)
	out := make([]Fig10Point, len(rankList))
	for i, p := range rankList {
		out[i] = Fig10Point{Ranks: p, Merge: vals[2*i], Neighborhood: vals[2*i+1]}
	}
	return out
}

// RenderFig10 prints a Figure 10 panel.
func RenderFig10(machine string, pts []Fig10Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 (%s): steady-state redistribution of almost sorted data\n", machine)
	fmt.Fprintf(&b, "(weak scaling, %d elements per rank, virtual seconds per step, max over ranks)\n", fig10ElemsPerRank)
	fmt.Fprintf(&b, "%-8s %12s %12s %10s\n", "ranks", "merge sort", "neighborhood", "merge/nbr")
	for _, p := range pts {
		ratio := "-"
		if p.Neighborhood > 0 {
			ratio = fmt.Sprintf("%.1fx", p.Merge/p.Neighborhood)
		}
		fmt.Fprintf(&b, "%-8d %s %s %10s\n", p.Ranks, fmtSeconds(p.Merge), fmtSeconds(p.Neighborhood), ratio)
	}
	return b.String()
}
