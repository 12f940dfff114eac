package vmpi

import "testing"

func TestClassBits(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, -1}, {1, -1}, {31, -1},
		{32, 5}, {33, 6}, {64, 6}, {65, 7},
		{1 << 24, 24}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classBits(c.n); got != c.want {
			t.Errorf("classBits(%d) = %d, want %d", c.n, got, c.want)
		}
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
	s := getSlice[int](100) // capacity 128
	if cap(s) != 128 {
		t.Fatalf("expected pow2 cap, got %d", cap(s))
	}
	for i := range s {
		s[i] = i
	}
	Release(s)
	// A recycled buffer must come back with the requested length and the
	// full class capacity, regardless of the length it was released at.
	r := getSlice[int](70)
	if len(r) != 70 || cap(r) != 128 {
		t.Fatalf("recycled slice len=%d cap=%d", len(r), cap(r))
	}
}

// TestOwnedBalancesRelease covers the exported checkout: the buffer is
// empty with the class capacity, a draw and its release meet in the in-use
// meter, a request below the smallest class is served from it, and one above
// the largest is a plain allocation the meter never sees.
func TestOwnedBalancesRelease(t *testing.T) {
	base := PoolStatsSnapshot().InUseBytes
	s := Owned[float64](100) // class 128 -> 1024 bytes
	if len(s) != 0 || cap(s) != 128 {
		t.Fatalf("Owned(100) has len %d cap %d, want 0 and 128", len(s), cap(s))
	}
	if got := PoolStatsSnapshot().InUseBytes - base; got != 1024 {
		t.Fatalf("in-use delta after Owned(100) = %d, want 1024", got)
	}
	Release(append(s, 1, 2, 3))
	for _, n := range []int{0, 7} {
		if s := Owned[float64](n); len(s) != 0 || cap(s) != 1<<poolMinBits {
			t.Fatalf("Owned(%d) has len %d cap %d, want 0 and the smallest class", n, len(s), cap(s))
		} else {
			Release(s)
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
	// Non-power-of-two capacity: must be ignored, not corrupt the pool.
	backing := make([]int, 100)
	Release(backing)
	// Subslice with pow2 cap view cut off: cap(s) is 100-4=96, not pow2.
	//parlint:allow ownedbuf -- this test deliberately double-releases a foreign (non-pooled) slice to prove the pool ignores it; production code must never re-release, and the interprocedural analyzer is right to flag the shape
	Release(backing[4:10])
	// Tiny and huge slices are outside the class range.
	Release(make([]byte, 8))
}

// TestPoolHighWaterMeter is the regression test for the in-use/high-water
// byte meters: checkouts raise both, releases lower only the in-use
// meter, the high-water mark ratchets (it never falls while buffers churn
// below the peak), and ResetPoolStats restarts it from the still-resident
// bytes rather than zero.
func TestPoolHighWaterMeter(t *testing.T) {
	ResetPoolStats()
	base := PoolStatsSnapshot()

	a := getSlice[int64](100) // class 128 -> 1024 bytes
	st := PoolStatsSnapshot()
	if got := st.InUseBytes - base.InUseBytes; got != 1024 {
		t.Fatalf("in-use delta after one checkout = %d, want 1024", got)
	}
	if st.HighWaterBytes < st.InUseBytes {
		t.Fatalf("high water %d below in-use %d", st.HighWaterBytes, st.InUseBytes)
	}

	b := getSlice[int64](100)
	peak := PoolStatsSnapshot()
	if got := peak.HighWaterBytes - base.InUseBytes; got < 2048 {
		t.Fatalf("high water delta with two checkouts = %d, want >= 2048", got)
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
