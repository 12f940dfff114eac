package psort

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/costs"
	"repro/internal/vmpi"
)

// keyedSorter sorts items and their extracted keys together, so the
// comparator of sort.Stable reads cached keys. Stability makes the result
// that of any stable sort by key.
type keyedSorter[T any] struct {
	items []T
	keys  []uint64
}

func (s *keyedSorter[T]) Len() int           { return len(s.items) }
func (s *keyedSorter[T]) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyedSorter[T]) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// refLocalSort is LocalSort over a key cache: keys extracted once during
// the sortedness scan, then sort.Stable over items and keys. It is the
// reference LocalSort is checked against (FuzzLocalSortMatchesReference)
// and the local sort of the message-level merge and rotational sorts, so
// that their fuzz target sees a local-sort bug too.
func refLocalSort[T any](c *vmpi.Comm, items []T, key func(T) uint64) {
	keys := make([]uint64, len(items))
	breaks := 0
	for i := range items {
		keys[i] = key(items[i])
		if i > 0 && keys[i-1] > keys[i] {
			breaks++
		}
	}
	if breaks > 0 {
		sort.Stable(&keyedSorter[T]{items: items, keys: keys})
	}
	if c != nil {
		c.Compute(costs.AdaptiveSortTime(len(items), breaks))
	}
}

// localSortInput is n records whose Val is their index, keyed by shape:
// 0 sorted, 1 reversed, 2 all equal, 3 the bigp drift (sorted, then one key
// in eight moved by up to half the slice's key span either way), 4 two
// sorted runs interleaved, 5 random with duplicates (n/4 distinct keys),
// 6 random over the full key range.
func localSortInput(n int, shape byte, seed uint64) []rec {
	items := make([]rec, n)
	for i := range items {
		h := fuzzMix(seed, uint64(i), 4)
		k := uint64(i) * 16
		switch shape % 7 {
		case 1:
			k = uint64(n-i) * 16
		case 2:
			k = 42
		case 3:
			if h%8 == 0 {
				d := h >> 8 % (uint64(n)*8 + 1)
				if h&8 != 0 && d <= k {
					k -= d
				} else if h&8 == 0 {
					k += d
				}
			}
		case 4:
			k = uint64(i/2) * 16
			if i%2 == 1 {
				k += uint64(n) * 8
			}
		case 5:
			k = h % uint64(n/4+1)
		case 6:
			k = h
		}
		items[i] = rec{Key: k, Val: int64(i)}
	}
	return items
}

// FuzzLocalSortMatchesReference sorts the input a byte string encodes with
// LocalSort and with refLocalSort, each in a 1-rank world, and compares
// the items — Val numbers them, so a stability slip shows — and the rank's
// clock bits, which carry the breaks count. Bytes 0-1 pick n, 0 … 2048;
// byte 2 localSortInput's shape; the rest seeds the keys. Random inputs of
// more than a few dozen keys exceed the insertion budget and reach the
// slices.SortStableFunc fallback.
func FuzzLocalSortMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0}, {1, 0, 0}, {128, 0, 3, 7}, {0, 8, 3, 9}, {200, 1, 1}, {255, 3, 2},
		{17, 2, 4, 1}, {0, 8, 5, 2}, {0, 8, 6, 3}, {100, 0, 6, 4},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 3 {
			return
		}
		n := (int(prog[0]) | int(prog[1])<<8) % 2049
		seed := uint64(0)
		for _, b := range prog[3:min(len(prog), 11)] {
			seed = seed<<8 | uint64(b)
		}
		in := localSortInput(n, prog[2], seed)
		run := func(sortFn func(*vmpi.Comm, []rec, func(rec) uint64)) *vmpi.Stats {
			return vmpi.Run(vmpi.Config{Ranks: 1}, func(c *vmpi.Comm) {
				items := append([]rec(nil), in...)
				sortFn(c, items, recKey)
				c.SetResult(items)
			})
		}
		want, got := run(refLocalSort[rec]), run(LocalSort[rec])
		if !reflect.DeepEqual(got.Values[0], want.Values[0]) {
			t.Fatalf("n %d, shape %d: items\n got %v\nwant %v", n, prog[2]%7, got.Values[0], want.Values[0])
		}
		if g, w := math.Float64bits(got.Clocks[0]), math.Float64bits(want.Clocks[0]); g != w {
			t.Fatalf("n %d, shape %d: clock %v, want %v", n, prog[2]%7, got.Clocks[0], want.Clocks[0])
		}
	})
}

// TestLocalSortAllocatesNothing: the host sort allocates nothing, on the
// insertion path (a drifted 128) and on the fallback (a random 4096).
func TestLocalSortAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		what string
		in   []rec
	}{
		{"drifted 128", localSortInput(128, 3, 1)},
		{"random 4096", localSortInput(4096, 6, 1)},
	} {
		items := make([]rec, len(tc.in))
		if allocs := testing.AllocsPerRun(20, func() {
			copy(items, tc.in)
			LocalSort(nil, items, recKey)
		}); allocs != 0 {
			t.Errorf("%s: %v allocations per LocalSort, want 0", tc.what, allocs)
		}
	}
}

func benchmarkLocalSort(b *testing.B, in []rec) {
	items := make([]rec, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		copy(items, in)
		LocalSort(nil, items, recKey)
	}
}

// BenchmarkLocalSortDrift128 is one rank's local sort in the bigp-merge
// workload's steady state: 128 keys, one in eight drifted.
func BenchmarkLocalSortDrift128(b *testing.B) { benchmarkLocalSort(b, localSortInput(128, 3, 1)) }

// BenchmarkLocalSortRandom4096 is 4096 random keys, the shape of the
// benchmark's psort.local_sort_4096 probe: the fallback.
func BenchmarkLocalSortRandom4096(b *testing.B) { benchmarkLocalSort(b, localSortInput(4096, 6, 1)) }
