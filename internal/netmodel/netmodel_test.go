package netmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSwitchedUniform(t *testing.T) {
	m := NewSwitched()
	// Cost is independent of the rank pair.
	c1 := m.Cost(0, 1, 1024)
	c2 := m.Cost(5, 200, 1024)
	if c1 != c2 {
		t.Errorf("switched cost differs by pair: %g vs %g", c1, c2)
	}
	if c1 <= 0 {
		t.Errorf("cost must be positive, got %g", c1)
	}
}

func TestSwitchedScalesWithBytes(t *testing.T) {
	m := NewSwitched()
	small := m.Cost(0, 1, 8)
	big := m.Cost(0, 1, 8<<20)
	if big <= small {
		t.Errorf("bigger message should cost more: %g vs %g", big, small)
	}
	// For large messages, bandwidth dominates: doubling size roughly
	// doubles cost.
	c1 := m.Cost(0, 1, 64<<20)
	c2 := m.Cost(0, 1, 128<<20)
	if ratio := c2 / c1; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("bandwidth regime ratio = %g, want ~2", ratio)
	}
}

func TestSwitchedSelfSend(t *testing.T) {
	m := NewSwitched()
	self := m.Cost(3, 3, 4096)
	other := m.Cost(3, 4, 4096)
	if self >= other {
		t.Errorf("self-send should be cheaper than network: %g vs %g", self, other)
	}
}

func TestTorusHopsNeighbor(t *testing.T) {
	tr := NewTorus(64) // 4x4x4
	if got := tr.Hops(0, 0); got != 0 {
		t.Errorf("Hops(0,0) = %d, want 0", got)
	}
	// rank 1 differs in last coordinate by 1
	if got := tr.Hops(0, 1); got != 1 {
		t.Errorf("Hops(0,1) = %d, want 1", got)
	}
}

func TestTorusWraparound(t *testing.T) {
	tr := NewTorus(64) // 4x4x4
	// coords(3) = (0,0,3); coords(0) = (0,0,0): distance min(3, 1) = 1 via wrap.
	if got := tr.Hops(0, 3); got != 1 {
		t.Errorf("wraparound Hops(0,3) = %d, want 1", got)
	}
}

func TestTorusSymmetry(t *testing.T) {
	tr := NewTorus(128)
	f := func(a, b uint8) bool {
		x, y := int(a)%128, int(b)%128
		return tr.Hops(x, y) == tr.Hops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusTriangleInequality(t *testing.T) {
	tr := NewTorus(64)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		return tr.Hops(x, z) <= tr.Hops(x, y)+tr.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusNeighborCheaperThanFar(t *testing.T) {
	tr := NewTorus(512) // 8x8x8
	near := tr.Cost(0, 1, 65536)
	// opposite corner: coords (4,4,4) => rank 4*64+4*8+4
	far := tr.Cost(0, 4*64+4*8+4, 65536)
	if near >= far {
		t.Errorf("neighbor message should be cheaper: near %g, far %g", near, far)
	}
	if far/near < 1.5 {
		t.Errorf("far/near cost ratio %g too small to matter", far/near)
	}
}

func TestNearCubicDims(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		want int // minimum product
	}{
		{1, 3, 1}, {2, 3, 2}, {8, 3, 8}, {64, 3, 64}, {100, 3, 100}, {256, 3, 256},
	} {
		dims := nearCubicDims(tc.n, tc.d)
		if len(dims) != tc.d {
			t.Fatalf("nearCubicDims(%d,%d) len = %d", tc.n, tc.d, len(dims))
		}
		if p := product(dims); p < tc.want {
			t.Errorf("nearCubicDims(%d,%d) = %v, product %d < %d", tc.n, tc.d, dims, p, tc.want)
		}
	}
	// Power of two: exact product and balanced.
	dims := nearCubicDims(64, 3)
	if product(dims) != 64 {
		t.Errorf("nearCubicDims(64,3) product = %d, want 64", product(dims))
	}
	max, min := 0, math.MaxInt
	for _, d := range dims {
		if d > max {
			max = d
		}
		if d < min {
			min = d
		}
	}
	if max > 2*min {
		t.Errorf("unbalanced dims %v", dims)
	}
}

func TestValidate(t *testing.T) {
	tr := NewTorus(64)
	if err := Validate(tr, 64); err != nil {
		t.Errorf("Validate(64) = %v, want nil", err)
	}
	if err := Validate(tr, 65); err == nil {
		t.Error("Validate(65) on 64-rank torus should fail")
	}
	if err := Validate(NewSwitched(), 1<<20); err != nil {
		t.Errorf("switched should validate any size: %v", err)
	}
}

func TestInjectionPositive(t *testing.T) {
	for _, m := range []Model{NewSwitched(), NewTorus(8)} {
		if inj := m.Injection(1 << 20); inj <= 0 {
			t.Errorf("%s: Injection should be positive, got %g", m.Name(), inj)
		}
		if m.Injection(0) != 0 {
			t.Errorf("%s: zero bytes should inject in zero time", m.Name())
		}
	}
}

// refHops is Torus.Hops as it was before the shift-and-mask form: the
// coordinates peeled off by division, for dims of any size. The reference
// the tests and FuzzTorusCostMatchesReference compare Hops against.
func refHops(t *Torus, src, dst int) int {
	if src == dst {
		return 0
	}
	hops := 0
	for i := len(t.dims) - 1; i >= 0; i-- {
		n := t.dims[i]
		d := src%n - dst%n
		src /= n
		dst /= n
		if d < 0 {
			d = -d
		}
		if w := n - d; w < d {
			d = w
		}
		hops += d
	}
	if hops == 0 {
		hops = 1
	}
	return hops
}

// refTorusCost is Torus.Cost as it was before the per-hop tables: latency
// and bandwidth computed from the parameters for every message.
func refTorusCost(t *Torus, src, dst, bytes int) float64 {
	if src == dst {
		return localCopyCost(bytes)
	}
	h := refHops(t, src, dst)
	bw := torusBandwidth / (1 + torusHopPenalty*float64(h-1))
	return torusBaseLatency + float64(h)*torusHopLatency + float64(bytes)/bw
}

// Hops and Cost match their references bit for bit on every node pair of
// tori with power-of-two and other rank counts (the latter covered by a
// larger power-of-two torus), for message sizes from empty to 1 GiB.
func TestTorusCostMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 8, 24, 1000, 65536, 1 << 30}
	for _, p := range []int{1, 2, 3, 8, 27, 64, 100, 512, 1024} {
		tr := NewTorus(p)
		for src := 0; src < p; src++ {
			for dst := 0; dst < p; dst++ {
				if got, want := tr.Hops(src, dst), refHops(tr, src, dst); got != want {
					t.Fatalf("P=%d (dims %v): Hops(%d, %d) = %d, reference %d", p, tr.dims, src, dst, got, want)
				}
				for _, b := range sizes {
					got, want := tr.Cost(src, dst, b), refTorusCost(tr, src, dst, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("P=%d (dims %v): Cost(%d, %d, %d) = %v, reference %v", p, tr.dims, src, dst, b, got, want)
					}
				}
			}
		}
	}
}

// FuzzTorusCostMatchesReference compares Cost with refTorusCost, bit for
// bit, on random tori of up to 65 536 ranks, node pairs and byte counts.
// Its seed corpus is under testdata/fuzz.
func FuzzTorusCostMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, p, src, dst uint32, bytes uint64) {
		ranks := int(p%65536) + 1
		s, d, b := int(src)%ranks, int(dst)%ranks, int(bytes>>2)
		tr := NewTorus(ranks)
		if got, want := tr.Cost(s, d, b), refTorusCost(tr, s, d, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("P=%d (dims %v): Cost(%d, %d, %d) = %v, reference %v", ranks, tr.dims, s, d, b, got, want)
		}
	})
}

var costSink float64

// BenchmarkTorusCost is one message's network cost on the 4096-rank torus
// of the Figure 10 merge-sort cell, over scattered node pairs.
func BenchmarkTorusCost(b *testing.B) {
	m := NewTorus(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		costSink += m.Cost(i&4095, (i*7919)&4095, 1024)
	}
}
