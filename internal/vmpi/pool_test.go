package vmpi

import (
	"sync"
	"testing"
	"unsafe"
)

func TestClassBits(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, -1}, {1, -1}, {31, -1},
		{32, 0}, {33, 1}, {36, 1}, {37, 2}, {60, 7}, {61, 8}, {64, 8}, {65, 9},
		{100, 13}, {1 << 24, poolClasses - 1}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classBits(c.n); got != c.want {
			t.Errorf("classBits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestSizeClassLadder checks the eighth-octave ladder exhaustively up to
// 2^17 elements and at every octave edge and class capacity (±1) up to
// 2^24: classBits picks the smallest class holding n, which wastes less than
// an eighth of n; poolClass accepts exactly the class capacities; and a
// shared buffer's capacity (sharedCap) is never one.
func TestSizeClassLadder(t *testing.T) {
	isCap := map[int]bool{}
	for i := 0; i < poolClasses; i++ {
		if i > 0 && classCap(i) <= classCap(i-1) {
			t.Fatalf("classCap(%d) = %d not above classCap(%d) = %d", i, classCap(i), i-1, classCap(i-1))
		}
		isCap[classCap(i)] = true
	}
	if classCap(0) != 1<<poolMinBits || classCap(poolClasses-1) != 1<<poolMaxBits {
		t.Fatalf("classes span %d…%d, want %d…%d", classCap(0), classCap(poolClasses-1), 1<<poolMinBits, 1<<poolMaxBits)
	}
	check := func(n int) {
		b := classBits(n)
		switch {
		case n < 1<<poolMinBits || n > 1<<poolMaxBits:
			if b != -1 {
				t.Fatalf("classBits(%d) = %d outside the pooled range", n, b)
			}
		case b < 0 || n > classCap(b) || (b > 0 && classCap(b-1) >= n):
			t.Fatalf("classBits(%d) = %d is not the smallest class holding it", n, b)
		case n > 1<<poolMinBits && 8*classCap(b) >= 9*n:
			t.Fatalf("class %d of n=%d wastes an eighth or more", classCap(b), n)
		}
		if got := poolClass(n) >= 0; got != isCap[n] {
			t.Fatalf("poolClass(%d) >= 0 is %v, want %v", n, got, isCap[n])
		}
		if poolClass(sharedCap(n)) >= 0 {
			t.Fatalf("sharedCap(%d) = %d is a class capacity", n, sharedCap(n))
		}
	}
	for n := 0; n <= 1<<17; n++ {
		check(n)
	}
	for e := 17; e <= poolMaxBits+1; e++ {
		check(1<<e - 1)
		check(1 << e)
		check(1<<e + 1)
	}
	for c := range isCap {
		check(c - 1)
		check(c)
		check(c + 1)
	}
}

func TestGetSliceLenCap(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 100, 4096, 1<<24 + 1} {
		s := getSlice[float64](n)
		if len(s) != n {
			t.Fatalf("getSlice(%d) has len %d", n, len(s))
		}
	}
}

func TestReleaseRecycle(t *testing.T) {
	s := getSlice[int](100) // capacity 104 = 13·2^3
	if cap(s) != 104 {
		t.Fatalf("expected class cap 104, got %d", cap(s))
	}
	for i := range s {
		s[i] = i
	}
	Release(s)
	// A recycled buffer must come back with the requested length and the
	// full class capacity, regardless of the length it was released at.
	r := getSlice[int](98)
	if len(r) != 98 || cap(r) != 104 {
		t.Fatalf("recycled slice len=%d cap=%d", len(r), cap(r))
	}
}

// TestOwnedBalancesRelease covers the exported checkout: the buffer is
// empty with the class capacity, a draw and its release meet in the in-use
// meter, a request below the smallest class is served from it with the
// rest of the class counted as waste, and one above the largest is a plain
// allocation the meter never sees.
func TestOwnedBalancesRelease(t *testing.T) {
	base := PoolStatsSnapshot().InUseBytes
	s := Owned[float64](100) // class 104 -> 832 bytes
	if len(s) != 0 || cap(s) != 104 {
		t.Fatalf("Owned(100) has len %d cap %d, want 0 and 104", len(s), cap(s))
	}
	if got := PoolStatsSnapshot().InUseBytes - base; got != 832 {
		t.Fatalf("in-use delta after Owned(100) = %d, want 832", got)
	}
	Release(append(s, 1, 2, 3))
	for _, n := range []int{0, 7} {
		waste := PoolStatsSnapshot().WasteBytes
		if s := Owned[float64](n); len(s) != 0 || cap(s) != 1<<poolMinBits {
			t.Fatalf("Owned(%d) has len %d cap %d, want 0 and the smallest class", n, len(s), cap(s))
		} else {
			Release(s)
		}
		if got, want := PoolStatsSnapshot().WasteBytes-waste, int64(1<<poolMinBits-n)*8; got != want {
			t.Fatalf("Owned(%d) counted %d bytes of waste, want %d", n, got, want)
		}
	}
	if s := Owned[byte](1<<poolMaxBits + 1); len(s) != 0 || cap(s) != 1<<poolMaxBits+1 {
		t.Fatalf("Owned above the largest class has len %d cap %d", len(s), cap(s))
	}
	if got := PoolStatsSnapshot().InUseBytes; got != base {
		t.Fatalf("in-use bytes %d after the releases, want the pre-draw %d", got, base)
	}
}

func TestReleaseIgnoresForeignSlices(t *testing.T) {
	// A capacity between two classes (96 and 104): must be ignored, not
	// corrupt the pool.
	backing := make([]int, 100)
	Release(backing)
	// A subslice's capacity is cut from the front: 100-2 = 98, no class.
	Release(backing[2:10])
	// Tiny and huge slices are outside the class range.
	Release(make([]byte, 8))
}

// foreignElem is an element type no other test draws, so its pool has no
// buffer out unless the test below draws one.
type foreignElem struct{ a, b int64 }

// TestReleaseDropsForeignBuffers: a class-shaped buffer the pool never lent
// is dropped by Release — neither Puts nor the in-use meter moves, and no
// later draw returns it — while a drawn buffer's release is still kept and
// recycled.
func TestReleaseDropsForeignBuffers(t *testing.T) {
	base := PoolStatsSnapshot()
	f := make([]foreignElem, 104) // class-shaped, never drawn
	fp := unsafe.SliceData(f)
	Release(f)
	if st := PoolStatsSnapshot(); st.Puts != base.Puts || st.InUseBytes != base.InUseBytes {
		t.Fatalf("foreign release moved Puts by %d and in-use bytes by %d", st.Puts-base.Puts, st.InUseBytes-base.InUseBytes)
	}
	s := Owned[foreignElem](100)
	if unsafe.SliceData(s[:1]) == fp {
		t.Fatal("Owned returned the released foreign buffer")
	}
	if cap(s) != 104 {
		t.Fatalf("Owned(100) has cap %d, want 104", cap(s))
	}
	// A drawn buffer's release is kept. sync.Pool may drop an entry at any
	// GC (and at random under -race), so recycling is asked of one round in
	// twenty, not of every round.
	recycled := false
	for i := 0; i < 20 && !recycled; i++ {
		before, sp := PoolStatsSnapshot().Puts, unsafe.SliceData(s[:1])
		Release(s)
		if PoolStatsSnapshot().Puts != before+1 {
			t.Fatal("release of a drawn buffer was not kept")
		}
		s = Owned[foreignElem](100)
		recycled = unsafe.SliceData(s[:1]) == sp
	}
	Release(s)
	if !recycled {
		t.Error("a drawn-then-released buffer was never recycled")
	}
	if st := PoolStatsSnapshot(); st.InUseBytes != base.InUseBytes {
		t.Errorf("in-use bytes moved by %d across the draws and releases", st.InUseBytes-base.InUseBytes)
	}
}

// TestReleaseCountsConcurrently: ranks draw and release from several
// goroutines at once, with foreign releases of the same class in between.
// A foreign release may take the count of a draw still out, and that draw's
// own release is then dropped, but the pool keeps exactly as many releases
// as it lent: the lent count ends at zero and the in-use meter where it
// started.
func TestReleaseCountsConcurrently(t *testing.T) {
	type elem struct{ a, b, c int32 }
	const workers, rounds = 4, 2000
	base := PoolStatsSnapshot()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := Owned[elem](100)
				Release(make([]elem, 104))
				Release(s)
			}
		}()
	}
	wg.Wait()
	if n := poolOf[elem]().out[classBits(104)].Load(); n != 0 {
		t.Errorf("%d buffers of the class still counted as lent", n)
	}
	st := PoolStatsSnapshot()
	if st.InUseBytes != base.InUseBytes {
		t.Errorf("in-use bytes moved by %d", st.InUseBytes-base.InUseBytes)
	}
	if puts := st.Puts - base.Puts; puts != workers*rounds {
		t.Errorf("%d releases kept for %d draws", puts, workers*rounds)
	}
}

// TestPoolHighWaterMeter is the regression test for the in-use/high-water
// byte meters: checkouts raise both, releases lower only the in-use
// meter, the high-water mark ratchets (it never falls while buffers churn
// below the peak), and ResetPoolStats restarts it from the still-resident
// bytes rather than zero.
func TestPoolHighWaterMeter(t *testing.T) {
	ResetPoolStats()
	base := PoolStatsSnapshot()

	a := getSlice[int64](100) // class 104 -> 832 bytes
	st := PoolStatsSnapshot()
	if got := st.InUseBytes - base.InUseBytes; got != 832 {
		t.Fatalf("in-use delta after one checkout = %d, want 832", got)
	}
	if st.HighWaterBytes < st.InUseBytes {
		t.Fatalf("high water %d below in-use %d", st.HighWaterBytes, st.InUseBytes)
	}

	b := getSlice[int64](100)
	peak := PoolStatsSnapshot()
	if got := peak.HighWaterBytes - base.InUseBytes; got < 1664 {
		t.Fatalf("high water delta with two checkouts = %d, want >= 1664", got)
	}

	Release(a)
	Release(b)
	after := PoolStatsSnapshot()
	if after.InUseBytes != base.InUseBytes {
		t.Errorf("in-use bytes %d after release, want the pre-checkout %d", after.InUseBytes, base.InUseBytes)
	}
	if after.HighWaterBytes != peak.HighWaterBytes {
		t.Errorf("high water moved across releases: %d -> %d", peak.HighWaterBytes, after.HighWaterBytes)
	}

	// A churn strictly below the previous peak must not move the mark.
	c := getSlice[int64](100)
	Release(c)
	if st := PoolStatsSnapshot(); st.HighWaterBytes != peak.HighWaterBytes {
		t.Errorf("high water moved under sub-peak churn: %d -> %d", peak.HighWaterBytes, st.HighWaterBytes)
	}

	ResetPoolStats()
	if st := PoolStatsSnapshot(); st.HighWaterBytes != st.InUseBytes {
		t.Errorf("reset high water %d, want restarted from in-use %d", st.HighWaterBytes, st.InUseBytes)
	}
}

// TestCopySliceIndependence guards the core distributed-memory invariant:
// a sent payload never aliases the caller's buffer, pooled or not.
func TestCopySliceIndependence(t *testing.T) {
	src := []int{1, 2, 3}
	dst := copySlice(src)
	dst[0] = 99
	if src[0] != 1 {
		t.Fatal("copySlice aliased its input")
	}
	big := make([]int, 64)
	big[0] = 7
	c := copySlice(big)
	c[0] = 8
	if big[0] != 7 {
		t.Fatal("pooled copySlice aliased its input")
	}
}
