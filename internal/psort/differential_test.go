package psort

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vmpi"
)

// TestSortsMatchStableSortOfConcatenation checks SortPartition and
// SortRotational against the sequential oracle: sort.SliceStable of every
// rank's input concatenated in rank order. P is drawn from 1 to 24, so most
// worlds are not a power of two and many are prime, over fuzzInput's four
// count shapes (empty and wildly uneven ranks) and four key shapes. The
// partition sort's ties keep (source rank, input order), so its output is
// the oracle's element for element; the rotational sort may permute equal
// keys, so its keys must match and its elements be the same multiset.
func TestSortsMatchStableSortOfConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 96; trial++ {
		p := 1 + rng.Intn(24)
		if trial < 8 {
			p = []int{1, 2, 3, 5, 7, 11, 13, 23}[trial]
		}
		in := fuzzInput(p, byte(trial%4), byte(trial/4%4), rng.Uint64())
		var want []rec
		for _, b := range in {
			want = append(want, b...)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		for _, s := range []struct {
			name   string
			sort   func(*vmpi.Comm, []rec, func(rec) uint64) []rec
			stable bool
		}{
			{"SortPartition", SortPartition[rec], true},
			{"SortRotational", SortRotational[rec], false},
		} {
			var got []rec
			for _, b := range runSort(t, in, func(c *vmpi.Comm, items []rec) []rec { return s.sort(c, items, recKey) }) {
				got = append(got, b...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %d ranks, shape %d: %d elements out, %d in", s.name, p, trial%16, len(got), len(want))
			}
			if !s.stable {
				checkGloballySorted(t, in, [][]rec{got})
			}
			for i := range want {
				if got[i].Key != want[i].Key || (s.stable && got[i] != want[i]) {
					t.Fatalf("%s, %d ranks, shape %d: element %d is %v, the stable sort's is %v", s.name, p, trial%16, i, got[i], want[i])
				}
			}
		}
	}
}

// At one run slot an almost sorted SortMerge parks each rank a constant
// number of times per call — once in the network's rendezvous and once in
// each of the cleanup's two allgathers — where the message-level network
// parks in a good share of each rank's O(log² P) comparators.
func TestSortMergeParksConstantPerRank(t *testing.T) {
	const p, calls = 256, 2
	in := make([][]rec, p) // equal counts, so no cleanup rounds
	for r := range in {
		in[r] = make([]rec, 8)
		for i := range in[r] {
			id := uint64(r*8 + i)
			in[r][i] = rec{Key: id*8 + fuzzMix(41, id, 0)%24, Val: int64(id)}
		}
	}
	parks := func(sortFn func(*vmpi.Comm, []rec, func(rec) uint64) []rec) int64 {
		st := vmpi.Run(vmpi.Config{Ranks: p, Workers: 1}, func(c *vmpi.Comm) {
			items := append([]rec(nil), in[c.Rank()]...)
			for k := 0; k < calls; k++ {
				items = sortFn(c, items, recKey)
			}
		})
		return st.Exec.Parks
	}
	got, ref := parks(SortMerge[rec]), parks(refSortMerge[rec])
	t.Logf("%d ranks, %d calls: %d parks replayed, %d message-level", p, calls, got, ref)
	if got > 3*p*calls {
		t.Errorf("SortMerge parked %d times over %d calls of %d ranks, want at most 3 per rank per call", got, calls, p)
	}
	if ref <= 4*got {
		t.Errorf("the message-level network parked %d times, want far more than the replay's %d", ref, got)
	}
}

// A rank that skips SortMerge leaves the rest parked in its rendezvous; the
// verdict names it and the missing rank.
func TestSortMergeDeadlockNamesRendezvous(t *testing.T) {
	defer func() {
		const want = "vmpi: deadlock: all ranks blocked in receive or collective:\n" +
			"  3 of 4 ranks parked in SortMerge with state psort.mergeState[repro/internal/psort.rec]; missing ranks [2]\n"
		if p := recover(); p != want {
			t.Fatalf("deadlock panic:\n%v\nwant:\n%s", p, want)
		}
	}()
	in := fuzzInput(4, 0, 0, 5)
	vmpi.Run(vmpi.Config{Ranks: 4}, func(c *vmpi.Comm) {
		if c.Rank() == 2 {
			return // skips the sort
		}
		//parlint:allow collsym -- rank 2 skips this SortMerge on purpose
		SortMerge(c, in[c.Rank()], recKey)
	})
}
