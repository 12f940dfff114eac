package psort

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/vmpi"
)

// TestMergeExchangeGroupsDisjoint checks the premise SortMerge hands each
// step to Replayer.Group on: no input is in two comparators of one
// (p,q,r,d) group of mergeExchange, nor in two pairs of one odd-even
// cleanup round, over any chain. It also pins each group's numbering
// (comparators.at) to the network's pass-order scan of i.
func TestMergeExchangeGroupsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 300; n++ {
		mergeExchange(n, func(g comparators) {
			var want [][2]int
			for i := 0; i+g.d < n; i++ {
				if i&g.p == g.r {
					want = append(want, [2]int{i, i + g.d})
				}
			}
			if g.n != len(want) {
				t.Fatalf("n=%d group %+v: %d comparators, the scan finds %d", n, g, g.n, len(want))
			}
			seen := make([]bool, n)
			for k := range g.n {
				i, j := g.at(k)
				if [2]int{i, j} != want[k] {
					t.Fatalf("n=%d group %+v: comparator %d is (%d, %d), the scan's is %v", n, g, k, i, j, want[k])
				}
				if seen[i] || seen[j] {
					t.Fatalf("n=%d group %+v: comparator (%d, %d) reuses an input", n, g, i, j)
				}
				seen[i], seen[j] = true, true
			}
		})
		// A chain is the ascending non-empty ranks of some n-rank world.
		chain := rng.Perm(300)[:n]
		sort.Ints(chain)
		for round := range 2 {
			seen := map[int]bool{}
			pairs := oddEvenPairs(len(chain), round)
			for k := range pairs {
				i, j := oddEvenPair(chain, round, k)
				if seen[i] || seen[j] || i >= j {
					t.Fatalf("chain of %d, round %d: pair %d (%d, %d) reuses a rank or is out of order", n, round, k, i, j)
				}
				seen[i], seen[j] = true, true
			}
			if want := (n - round%2) / 2; pairs != want {
				t.Fatalf("chain of %d, round %d: %d pairs, want %d", n, round, pairs, want)
			}
		}
	}
}

// TestSortMergeParallelReplayBitIdentical sorts worlds whose network steps
// and cleanup rounds hold several tiles of Replayer.Group, so a replay runs
// them on hostpar's workers wherever GOMAXPROCS and the budget allow: every rank's
// items, clock bits, counters, phases and traced events must match the
// message-level sort, and the same run at GOMAXPROCS 1, 2, 4 × Workers 1,
// 2, 8; no goroutine may outlive a run. Both inputs are almost sorted, the
// method B steady state; the 1024-rank one has a third of its ranks empty,
// so the odd-even cleanup runs.
func TestSortMergeParallelReplayBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		p      int
		counts byte
	}{{512, 0}, {1024, 1}} {
		in := fuzzInput(tc.p, tc.counts, 3, uint64(tc.p))
		run := func(procs, workers int, sortFn func(*vmpi.Comm, []rec, func(rec) uint64) []rec) *vmpi.Stats {
			runtime.GOMAXPROCS(procs)
			cfg := vmpi.Config{Ranks: tc.p, Model: netmodel.NewTorus(tc.p), Trace: true, Workers: workers}
			return vmpi.Run(cfg, func(c *vmpi.Comm) {
				items := append([]rec(nil), in[c.Rank()]...)
				c.Compute(float64(fuzzMix(uint64(tc.p), uint64(c.Rank()), 3)%7) * 1e-7)
				c.Phase("sort", func() { items = sortFn(c, items, recKey) })
				c.SetResult(items)
			})
		}
		want := run(1, 1, refSortMerge[rec])
		if tc.counts == 1 && cleanupRounds(want) == 0 {
			t.Fatalf("%d ranks: the input needs no cleanup round", tc.p)
		}
		for _, procs := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 8} {
				got := run(procs, workers, SortMerge[rec])
				sameRuns(t, tc.p, "the message-level sort", got, want)
				n := runtime.NumGoroutine()
				for wait := 0; n > base && wait < 100; wait++ {
					// A rank goroutine may not have left its last frame yet.
					time.Sleep(10 * time.Millisecond)
					n = runtime.NumGoroutine()
				}
				if n > base {
					t.Fatalf("%d ranks, GOMAXPROCS %d, %d workers: %d goroutines after the run, %d before",
						tc.p, procs, workers, n, base)
				}
			}
		}
	}
}

// cleanupRounds counts the odd-even rounds a traced run's rank 0 made: the
// cleanup allgathers the counts once and the headers before every round
// and once more when they are in order.
func cleanupRounds(st *vmpi.Stats) int {
	n := 0
	for _, e := range st.Events.ByRank[0] {
		if e.Kind == obs.KindCollective && e.Name == "allgather" {
			n++
		}
	}
	return n - 2
}
