package psort

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vmpi"
)

// rec is a key+payload element used across the tests.
type rec struct {
	Key uint64
	Val int64
}

func recKey(r rec) uint64 { return r.Key }

// runSort distributes items[r] to rank r, runs the given sort, and returns
// each rank's output.
func runSort(t *testing.T, items [][]rec, f func(c *vmpi.Comm, in []rec) []rec) [][]rec {
	t.Helper()
	st := vmpi.Run(vmpi.Config{Ranks: len(items)}, func(c *vmpi.Comm) {
		in := append([]rec(nil), items[c.Rank()]...)
		c.SetResult(f(c, in))
	})
	out := make([][]rec, len(items))
	for r, v := range st.Values {
		out[r] = v.([]rec)
	}
	return out
}

// checkGloballySorted verifies the concatenation of out is sorted and is a
// permutation of the multiset of in.
func checkGloballySorted(t *testing.T, in, out [][]rec) {
	t.Helper()
	var flatIn, flatOut []rec
	for _, b := range in {
		flatIn = append(flatIn, b...)
	}
	for _, b := range out {
		flatOut = append(flatOut, b...)
	}
	if len(flatIn) != len(flatOut) {
		t.Fatalf("element count changed: %d -> %d", len(flatIn), len(flatOut))
	}
	for i := 1; i < len(flatOut); i++ {
		if flatOut[i-1].Key > flatOut[i].Key {
			t.Fatalf("global order violated at %d: %d > %d", i, flatOut[i-1].Key, flatOut[i].Key)
		}
	}
	// Multiset equality via sorted copies (including payloads).
	less := func(a, b rec) bool {
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Val < b.Val
	}
	sort.Slice(flatIn, func(i, j int) bool { return less(flatIn[i], flatIn[j]) })
	cp := append([]rec(nil), flatOut...)
	sort.Slice(cp, func(i, j int) bool { return less(cp[i], cp[j]) })
	for i := range flatIn {
		if flatIn[i] != cp[i] {
			t.Fatalf("multiset changed at %d: %v vs %v", i, flatIn[i], cp[i])
		}
	}
}

func randomInput(p, perRank int, seed int64) [][]rec {
	rng := rand.New(rand.NewSource(seed))
	items := make([][]rec, p)
	id := int64(0)
	for r := range items {
		n := perRank
		if perRank > 3 {
			n = perRank/2 + rng.Intn(perRank) // unequal counts
		}
		items[r] = make([]rec, n)
		for i := range items[r] {
			items[r][i] = rec{Key: uint64(rng.Intn(perRank * p * 4)), Val: id}
			id++
		}
	}
	return items
}

func TestLocalSort(t *testing.T) {
	items := []rec{{5, 0}, {1, 1}, {5, 2}, {0, 3}}
	LocalSort(nil, items, recKey)
	want := []rec{{0, 3}, {1, 1}, {5, 0}, {5, 2}} // stable for equal keys
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("LocalSort = %v", items)
		}
	}
	if !IsSorted(items, recKey) {
		t.Error("IsSorted(sorted) = false")
	}
	if IsSorted([]rec{{2, 0}, {1, 0}}, recKey) {
		t.Error("IsSorted(unsorted) = true")
	}
}

func TestSortPartitionBasic(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		in := randomInput(p, 40, int64(p))
		out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
			return SortPartition(c, items, recKey)
		})
		checkGloballySorted(t, in, out)
	}
}

func TestSortPartitionBalance(t *testing.T) {
	const p = 8
	const perRank = 200
	in := make([][]rec, p)
	rng := rand.New(rand.NewSource(3))
	for r := range in {
		in[r] = make([]rec, perRank)
		for i := range in[r] {
			in[r][i] = rec{Key: rng.Uint64() >> 20}
		}
	}
	out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortPartition(c, items, recKey)
	})
	checkGloballySorted(t, in, out)
	for r, b := range out {
		if len(b) < perRank/4 || len(b) > perRank*4 {
			t.Errorf("rank %d holds %d elements, average %d: poor balance", r, len(b), perRank)
		}
	}
}

func TestSortPartitionAllOnOneRank(t *testing.T) {
	// The paper's "single process" initial distribution: everything on
	// rank 0 must still sort and spread across ranks.
	const p = 4
	in := make([][]rec, p)
	rng := rand.New(rand.NewSource(5))
	in[0] = make([]rec, 400)
	for i := range in[0] {
		in[0][i] = rec{Key: uint64(rng.Intn(1 << 30)), Val: int64(i)}
	}
	out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortPartition(c, items, recKey)
	})
	checkGloballySorted(t, in, out)
	moved := 0
	for r := 1; r < p; r++ {
		moved += len(out[r])
	}
	if moved == 0 {
		t.Error("partition sort left all elements on rank 0")
	}
}

func TestSortPartitionDuplicateKeys(t *testing.T) {
	const p = 4
	in := make([][]rec, p)
	for r := range in {
		in[r] = make([]rec, 50)
		for i := range in[r] {
			in[r][i] = rec{Key: uint64(i % 3), Val: int64(r*100 + i)}
		}
	}
	out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortPartition(c, items, recKey)
	})
	checkGloballySorted(t, in, out)
}

func TestSortMergeBasic(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		in := randomInput(p, 30, int64(p)+100)
		out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
			return SortMerge(c, items, recKey)
		})
		checkGloballySorted(t, in, out)
		// Counts preserved per rank.
		for r := range in {
			if len(out[r]) != len(in[r]) {
				t.Errorf("p=%d rank %d: count %d -> %d", p, r, len(in[r]), len(out[r]))
			}
		}
	}
}

func TestSortMergeEmptyRanks(t *testing.T) {
	const p = 4
	in := make([][]rec, p)
	in[1] = []rec{{9, 0}, {1, 1}, {5, 2}}
	in[3] = []rec{{2, 3}, {8, 4}}
	out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortMerge(c, items, recKey)
	})
	checkGloballySorted(t, in, out)
	for r := range in {
		if len(out[r]) != len(in[r]) {
			t.Errorf("rank %d count changed %d -> %d", r, len(in[r]), len(out[r]))
		}
	}
}

func TestSortMergeSkewedCounts(t *testing.T) {
	// Highly unequal counts stress the unequal-block correctness of the
	// merge-exchange network plus cleanup.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := 2 + rng.Intn(7)
		in := make([][]rec, p)
		id := int64(0)
		for r := range in {
			n := rng.Intn(30)
			if rng.Intn(3) == 0 {
				n = 0
			}
			in[r] = make([]rec, n)
			for i := range in[r] {
				in[r][i] = rec{Key: uint64(rng.Intn(50)), Val: id}
				id++
			}
		}
		out := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
			return SortMerge(c, items, recKey)
		})
		checkGloballySorted(t, in, out)
	}
}

func TestSortMergeAlmostSortedMovesLittleData(t *testing.T) {
	// For almost sorted input, the merge-based sort must move far less
	// data than the partition sort — the paper's motivation (§III-B).
	const p = 8
	const perRank = 200
	mkInput := func() [][]rec {
		rng := rand.New(rand.NewSource(17))
		in := make([][]rec, p)
		key := uint64(0)
		for r := range in {
			in[r] = make([]rec, perRank)
			for i := range in[r] {
				key += uint64(rng.Intn(5))
				in[r][i] = rec{Key: key, Val: int64(r*perRank + i)}
			}
		}
		// Perturb a few keys slightly (particles moved a little).
		for k := 0; k < 10; k++ {
			r := rng.Intn(p)
			i := rng.Intn(perRank)
			in[r][i].Key += uint64(rng.Intn(7))
		}
		return in
	}
	in := mkInput()
	var mergeBytes, partBytes int64
	stM := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		items := append([]rec(nil), in[c.Rank()]...)
		c.SetResult(SortMerge(c, items, recKey))
	})
	mergeBytes = stM.TotalBytes()
	stP := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		items := append([]rec(nil), in[c.Rank()]...)
		c.SetResult(SortPartition(c, items, recKey))
	})
	partBytes = stP.TotalBytes()
	if mergeBytes >= partBytes {
		t.Errorf("almost sorted: merge sort moved %d bytes, partition %d; expected merge << partition",
			mergeBytes, partBytes)
	}
	// And the outputs are correctly sorted.
	outM := make([][]rec, p)
	for r, v := range stM.Values {
		outM[r] = v.([]rec)
	}
	checkGloballySorted(t, in, outM)
}

func TestSortsAgreeOnKeys(t *testing.T) {
	// Both sorts must produce the same global key sequence.
	const p = 6
	in := randomInput(p, 50, 23)
	outP := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortPartition(c, items, recKey)
	})
	outM := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortMerge(c, items, recKey)
	})
	var keysP, keysM []uint64
	for r := 0; r < p; r++ {
		for _, e := range outP[r] {
			keysP = append(keysP, e.Key)
		}
		for _, e := range outM[r] {
			keysM = append(keysM, e.Key)
		}
	}
	if len(keysP) != len(keysM) {
		t.Fatalf("length mismatch %d vs %d", len(keysP), len(keysM))
	}
	for i := range keysP {
		if keysP[i] != keysM[i] {
			t.Fatalf("key sequence differs at %d: %d vs %d", i, keysP[i], keysM[i])
		}
	}
}

func TestSortDeterminism(t *testing.T) {
	const p = 5
	in := randomInput(p, 60, 31)
	a := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortPartition(c, items, recKey)
	})
	b := runSort(t, in, func(c *vmpi.Comm, items []rec) []rec {
		return SortPartition(c, items, recKey)
	})
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("rank %d nondeterministic count", r)
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d nondeterministic element %d", r, i)
			}
		}
	}
}

func TestMergeExchangeScheduleSortsIntegers(t *testing.T) {
	// The comparator schedule must be a valid sorting network: check by
	// sorting random permutations element-wise.
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31} {
		sched := mergeExchangeSchedule(n)
		for trial := 0; trial < 50; trial++ {
			v := rng.Perm(n)
			for _, ce := range sched {
				if v[ce.I] > v[ce.J] {
					v[ce.I], v[ce.J] = v[ce.J], v[ce.I]
				}
			}
			if !sort.IntsAreSorted(v) {
				t.Fatalf("n=%d: network failed to sort", n)
			}
		}
	}
}

func TestMergeExchangeSchedule01Principle(t *testing.T) {
	// Exhaustive 0-1 principle check for small n: a network sorting all
	// 0-1 inputs sorts everything.
	for n := 1; n <= 12; n++ {
		sched := mergeExchangeSchedule(n)
		for mask := 0; mask < 1<<n; mask++ {
			v := make([]int, n)
			for i := range v {
				v[i] = (mask >> i) & 1
			}
			for _, ce := range sched {
				if v[ce.I] > v[ce.J] {
					v[ce.I], v[ce.J] = v[ce.J], v[ce.I]
				}
			}
			if !sort.IntsAreSorted(v) {
				t.Fatalf("n=%d mask=%b: 0-1 input not sorted", n, mask)
			}
		}
	}
}

func TestMergeExchangeComparatorsValid(t *testing.T) {
	f := func(n uint8) bool {
		m := int(n)%30 + 1
		for _, ce := range mergeExchangeSchedule(m) {
			if ce.I < 0 || ce.J >= m || ce.I >= ce.J {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRankStepsMatchSchedule pins the per-rank group walk SortMerge runs
// against the oracle: for every rank, the steps rankSteps enumerates are
// that rank's comparators of the full schedule, in schedule order.
func TestRankStepsMatchSchedule(t *testing.T) {
	type step struct {
		partner int
		keepLow bool
	}
	for _, n := range []int{1, 2, 3, 5, 7, 8, 13, 64, 100, 257, 1024} {
		want := make([][]step, n)
		for _, ce := range mergeExchangeSchedule(n) {
			want[ce.I] = append(want[ce.I], step{ce.J, true})
			want[ce.J] = append(want[ce.J], step{ce.I, false})
		}
		for me := 0; me < n; me++ {
			var got []step
			rankSteps(n, me, func(partner int, keepLow bool) {
				got = append(got, step{partner, keepLow})
			})
			if !reflect.DeepEqual(got, want[me]) {
				t.Fatalf("n=%d rank %d: walk gives %v, schedule %v", n, me, got, want[me])
			}
		}
	}
}

func TestSortPartitionProperty(t *testing.T) {
	// Property-based: arbitrary key sets remain a sorted permutation.
	f := func(keys []uint16, pRaw uint8) bool {
		p := int(pRaw)%4 + 1
		in := make([][]rec, p)
		for i, k := range keys {
			r := i % p
			in[r] = append(in[r], rec{Key: uint64(k), Val: int64(i)})
		}
		st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
			items := append([]rec(nil), in[c.Rank()]...)
			c.SetResult(SortPartition(c, items, recKey))
		})
		var flat []rec
		for _, v := range st.Values {
			flat = append(flat, v.([]rec)...)
		}
		if len(flat) != len(keys) {
			return false
		}
		for i := 1; i < len(flat); i++ {
			if flat[i-1].Key > flat[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// IsSorted reports whether items are locally non-decreasing in key.
func IsSorted[T any](items []T, key func(T) uint64) bool {
	for i := 1; i < len(items); i++ {
		if key(items[i-1]) > key(items[i]) {
			return false
		}
	}
	return true
}
