package psort

import (
	"math/rand"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/vmpi"
)

// TestExactSplittingPreventsLoadDrift checks the design choice behind the
// partition sort (DESIGN.md, "Sorts"): repeatedly re-sorting slowly
// changing data with exact splitting keeps every rank's load pinned to
// ±(key multiplicity), where layout-dependent splitters would let it
// random-walk away from balance.
func TestExactSplittingPreventsLoadDrift(t *testing.T) {
	const p = 8
	const perRank = 250
	const steps = 40

	rng := rand.New(rand.NewSource(77))
	in := make([][]rec, p)
	id := int64(0)
	for r := range in {
		in[r] = make([]rec, perRank)
		for i := range in[r] {
			in[r][i] = rec{Key: uint64(rng.Intn(1 << 16)), Val: id}
			id++
		}
	}

	// `steps` rounds of (perturb keys slightly, re-sort); every rank
	// reports its load after the final round.
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		items := append([]rec(nil), in[c.Rank()]...)
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		for s := 0; s < steps; s++ {
			for i := range items {
				// Small random walk of the keys (particles moving).
				items[i].Key = uint64(int64(items[i].Key) + int64(rng.Intn(65)) - 32)
			}
			items = SortPartition(c, items, recKey)
		}
		c.SetResult(len(items))
	})
	for r, v := range st.Values {
		if n := v.(int); n > perRank*11/10 {
			t.Errorf("exact splitting: rank %d load %d drifted beyond 10%% of %d", r, n, perRank)
		}
	}
}

// BenchmarkSortDriftRegimes compares the three sorting strategies across
// movement magnitudes, the ablation for the paper's §III-B sort-switch
// heuristic: partition sort is insensitive to presortedness, merge sort is
// dramatically cheaper for small movement and worse for large.
func BenchmarkSortDriftRegimes(b *testing.B) {
	const p = 8
	const perRank = 300
	for _, bench := range []struct {
		name string
		move int // key perturbation magnitude per step
	}{
		{"almost-sorted", 4},
		{"medium-drift", 512},
		{"shuffled", 1 << 15},
	} {
		for _, sorter := range []struct {
			name string
			f    func(c *vmpi.Comm, items []rec) []rec
		}{
			{"partition", func(c *vmpi.Comm, items []rec) []rec { return SortPartition(c, items, recKey) }},
			{"merge", func(c *vmpi.Comm, items []rec) []rec { return SortMerge(c, items, recKey) }},
		} {
			b.Run(bench.name+"/"+sorter.name, func(b *testing.B) {
				var virt float64
				var bytes int64
				for i := 0; i < b.N; i++ {
					st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
						rng := rand.New(rand.NewSource(int64(c.Rank())))
						items := make([]rec, perRank)
						base := uint64(c.Rank()) << 20
						for j := range items {
							items[j] = rec{Key: base + uint64(j)<<4}
						}
						// Perturb from the sorted baseline by the regime's
						// movement magnitude.
						for j := range items {
							items[j].Key = uint64(int64(items[j].Key) + int64(rng.Intn(2*bench.move+1)) - int64(bench.move))
						}
						sorter.f(c, items)
					})
					virt = st.MaxClock()
					bytes = st.TotalBytes()
				}
				b.ReportMetric(virt, "vsec/sort")
				b.ReportMetric(float64(bytes), "bytes/total")
			})
		}
	}
}

func TestSortPartitionAllEqualKeys(t *testing.T) {
	// All particles in one box: keys cannot be split, so one rank ends up
	// owning everything (box-granularity decomposition); the sort must
	// stay correct and not hang in the splitter bisection.
	const p = 4
	in := make([][]rec, p)
	id := int64(0)
	for r := range in {
		in[r] = make([]rec, 25)
		for i := range in[r] {
			in[r][i] = rec{Key: 42, Val: id}
			id++
		}
	}
	out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortPartition(c, items, recKey)
	})
	checkGloballySorted(t, in, out)
}

func TestSortMergeAllEqualKeys(t *testing.T) {
	const p = 4
	in := make([][]rec, p)
	id := int64(0)
	for r := range in {
		in[r] = make([]rec, 10+r)
		for i := range in[r] {
			in[r][i] = rec{Key: 7, Val: id}
			id++
		}
	}
	out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortMerge(c, items, recKey)
	})
	checkGloballySorted(t, in, out)
	// Merge-split preserves counts even with all-equal keys.
	for r := range in {
		if len(out[r]) != len(in[r]) {
			t.Errorf("rank %d count %d -> %d", r, len(in[r]), len(out[r]))
		}
	}
}

func TestSortPartitionMaxKeys(t *testing.T) {
	// Keys at the top of the uint64 range must not overflow the bisection
	// bounds (hi = max+1).
	const p = 3
	in := make([][]rec, p)
	for r := range in {
		in[r] = []rec{{Key: ^uint64(0), Val: int64(r)}, {Key: ^uint64(0) - 1, Val: int64(r + 10)}}
	}
	out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortPartition(c, items, recKey)
	})
	checkGloballySorted(t, in, out)
}

// BenchmarkSortMerge4096 is one world of the Figure 10 merge-sort cell: 4096
// ranks on the torus, each holding 128 sorted keys of its own key range, one
// in eight of which drifted by up to half a range before the sort. Most
// comparators of the network see an ordered pair, so the replay's
// per-comparator cost — the header check and its messages — weighs heavily.
func BenchmarkSortMerge4096(b *testing.B) {
	const p, perRank, width = 4096, 128, 1 << 20
	cfg := vmpi.Config{Ranks: p, Model: netmodel.NewTorus(p), ComputeScale: 2.5}
	body := func(c *vmpi.Comm) {
		keys := make([]uint64, perRank)
		base := int64(c.Rank()) * width
		for i := range keys {
			h := mix64(uint64(c.Rank()*perRank + i))
			k := base + int64(i*width/perRank) + int64(h%(width/perRank)) // sorted
			if h>>61 == 0 {
				k += int64(h>>20%width) - width/2
			}
			keys[i] = uint64(min(max(k, 0), p*width-1))
		}
		SortMerge(c, keys, func(k uint64) uint64 { return k })
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vmpi.Run(cfg, body)
	}
}

// mix64 is the SplitMix64 finaliser: a cheap, deterministic key stream.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
