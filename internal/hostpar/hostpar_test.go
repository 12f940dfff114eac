package hostpar

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversRange checks every index is visited exactly once for a
// variety of sizes and grains.
func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, grain := range []int{0, 1, 3, 64, 4096} {
			visited := make([]int32, n)
			For(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d grain=%d: bad tile [%d,%d)", n, grain, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visited[i], 1)
				}
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, v)
				}
			}
		}
	}
}

// TestForTileBoundsFixed checks the tile decomposition is a pure function
// of (n, grain), independent of GOMAXPROCS.
func TestForTileBoundsFixed(t *testing.T) {
	collect := func() map[[2]int]bool {
		tiles := make(chan [2]int, 1024)
		For(1000, 37, func(lo, hi int) { tiles <- [2]int{lo, hi} })
		close(tiles)
		set := map[[2]int]bool{}
		for tl := range tiles {
			set[tl] = true
		}
		return set
	}
	prev := runtime.GOMAXPROCS(1)
	one := collect()
	runtime.GOMAXPROCS(maxInt(prev, 4))
	many := collect()
	runtime.GOMAXPROCS(prev)
	if len(one) != len(many) {
		t.Fatalf("tile count changed with GOMAXPROCS: %d vs %d", len(one), len(many))
	}
	for tl := range one {
		if !many[tl] {
			t.Fatalf("tile %v missing at high GOMAXPROCS", tl)
		}
	}
	if want := Tiles(1000, 37); len(one) != want {
		t.Fatalf("got %d tiles, Tiles() says %d", len(one), want)
	}
}

// TestForTilesIndices checks tile indices are consistent with bounds.
func TestForTilesIndices(t *testing.T) {
	n, grain := 101, 10
	got := make([]int64, Tiles(n, grain))
	ForTiles(n, grain, func(tile, lo, hi int) {
		if lo/grain != tile || lo%grain != 0 {
			t.Errorf("tile %d has lo %d", tile, lo)
		}
		atomic.AddInt64(&got[tile], int64(hi-lo))
	})
	total := int64(0)
	for _, v := range got {
		total += v
	}
	if total != int64(n) {
		t.Fatalf("tiles covered %d of %d indices", total, n)
	}
}

// TestDeterministicReduction exercises the canonical usage pattern: partial
// sums per tile, reduced in tile order, must be bit-identical under
// different GOMAXPROCS values.
func TestDeterministicReduction(t *testing.T) {
	n, grain := 12345, 64
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(3*i+1)
	}
	sum := func() float64 {
		parts := make([]float64, Tiles(n, grain))
		ForTiles(n, grain, func(tile, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			parts[tile] = s
		})
		total := 0.0
		for _, p := range parts {
			total += p
		}
		return total
	}
	prev := runtime.GOMAXPROCS(1)
	a := sum()
	runtime.GOMAXPROCS(maxInt(prev, 8))
	b := sum()
	runtime.GOMAXPROCS(prev)
	if a != b {
		t.Fatalf("reduction not deterministic: %x vs %x", a, b)
	}
}

// TestForPanicReachesCaller: every tile panics, on the caller and on a
// worker alike, and For re-raises on the caller the lowest tile's value
// once every tile has run. Afterwards every unit of the shared budget is
// free and no goroutine was added: the workers outlive the call.
func TestForPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		const tiles = 64
		var mu sync.Mutex
		panicked := map[string]int{} // goroutine → tiles it ran
		// Hold every tile until a second goroutine has run one, so that
		// both raise panics; a second at most in all.
		end := time.Now().Add(time.Second)
		got := catch(func() {
			For(tiles, 1, func(lo, _ int) {
				mu.Lock()
				panicked[goid()]++
				mu.Unlock()
				for ; time.Now().Before(end); runtime.Gosched() {
					mu.Lock()
					two := len(panicked) > 1
					mu.Unlock()
					if two {
						break
					}
				}
				panic(fmt.Sprintf("tile %d", lo))
			})
		})
		if got != "tile 0" {
			t.Fatalf("GOMAXPROCS %d: For raised %v, want tile 0", procs, got)
		}
		ran := 0
		for _, n := range panicked {
			ran += n
		}
		if len(panicked) < 2 || ran != tiles {
			t.Fatalf("GOMAXPROCS %d: %d tiles ran on %d goroutines, want %d on 2 or more", procs, ran, len(panicked), tiles)
		}
		if free := freeUnits(); free != shared.Capacity() {
			t.Fatalf("GOMAXPROCS %d: %d of %d shared budget units free", procs, free, shared.Capacity())
		}
		// A finished test's goroutine may still be leaving when base is read.
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("GOMAXPROCS %d: %d goroutines after For, %d before", procs, n, base)
		}
	}
}

// FuzzForMatchesSerial runs For over random sizes, grains and GOMAXPROCS,
// with panics planted in random tiles among the first 64, against the
// plain tile loop: every index is covered exactly once, per-tile partial
// sums reduced in tile order match the loop's bit for bit, and the value
// For re-raises is the loop's first panic.
func FuzzForMatchesSerial(f *testing.F) {
	f.Add(uint16(1000), uint8(37), uint8(1), uint64(0))
	f.Add(uint16(4096), uint8(64), uint8(3), uint64(0))
	f.Add(uint16(640), uint8(10), uint8(1), uint64(1<<63|1<<5))
	f.Add(uint16(7), uint8(0), uint8(2), uint64(1<<6))
	f.Add(uint16(0), uint8(5), uint8(1), uint64(1))
	f.Fuzz(func(t *testing.T, n16 uint16, grain8, procs uint8, plant uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1 + int(procs)%4))
		n, grain := int(n16), max(int(grain8), 1)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Copysign(1/float64(3*i+1), float64(i%3)-1)
		}
		partial := func(lo, hi int) (s float64) {
			if tile := lo / grain; tile < 64 && plant>>tile&1 == 1 {
				panic(fmt.Sprintf("tile %d", tile))
			}
			for _, x := range xs[lo:hi] {
				s += x
			}
			return s
		}
		var want []float64
		wantPanic := catch(func() {
			for lo := 0; lo < n; lo += grain {
				want = append(want, partial(lo, min(lo+grain, n)))
			}
		})
		covered := make([]int32, n)
		got := make([]float64, Tiles(n, grain))
		gotPanic := catch(func() {
			For(n, int(grain8), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
				got[lo/grain] = partial(lo, hi)
			})
		})
		if gotPanic != wantPanic {
			t.Fatalf("n=%d grain=%d: For raised %v, the loop %v", n, grain8, gotPanic, wantPanic)
		}
		if wantPanic != nil {
			return
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d grain=%d: index %d covered %d times", n, grain8, i, c)
			}
		}
		var sumWant, sumGot float64
		for tile := range want {
			sumWant += want[tile]
			sumGot += got[tile]
		}
		if math.Float64bits(sumGot) != math.Float64bits(sumWant) || len(got) != len(want) {
			t.Fatalf("n=%d grain=%d: tile-order sum %x over %d tiles, the loop's %x over %d",
				n, grain8, sumGot, len(got), sumWant, len(want))
		}
	})
}

// catch runs fn and returns what it panicked with, or nil.
func catch(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// freeUnits counts the shared budget's free units.
func freeUnits() int {
	free := 0
	for free < shared.Capacity() && shared.TryAcquire() {
		free++
	}
	for range free {
		shared.Release()
	}
	return free
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}
