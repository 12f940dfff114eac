package zorder

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeSmall(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		key     uint64
	}{
		{0, 0, 0, 0},
		{0, 0, 1, 1},
		{0, 1, 0, 2},
		{1, 0, 0, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 32}, // bit 1 of x -> bit 5
	}
	for _, c := range cases {
		if got := encode(c.x, c.y, c.z); got != c.key {
			t.Errorf("encode(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.key)
		}
		x, y, z := Decode(c.key)
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("Decode(%d) = (%d,%d,%d), want (%d,%d,%d)", c.key, x, y, z, c.x, c.y, c.z)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= 0x1fffff
		y &= 0x1fffff
		z &= 0x1fffff
		gx, gy, gz := Decode(encode(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeMonotoneInBoxOrder(t *testing.T) {
	// Along the Z curve, the key of a box equals 8*parent + child octant.
	f := func(x, y, z uint32) bool {
		x &= 0xfffff // 20 bits so children fit
		y &= 0xfffff
		z &= 0xfffff
		parent := encode(x, y, z)
		child := encode(x<<1|1, y<<1, z<<1|1) // octant x=1,y=0,z=1 -> 5
		return child == parent<<3|5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParentChild(t *testing.T) {
	f := func(k uint64, i uint8) bool {
		k &= (1 << 60) - 1
		c := int(i) & 7
		return Parent(Child(k, c)) == k && Child(k, c)&7 == uint64(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAtLevel(t *testing.T) {
	key := encode(5, 3, 7) // level-3 box
	if got := AtLevel(key, 3, 2); got != encode(2, 1, 3) {
		t.Errorf("AtLevel = %d, want %d", got, encode(2, 1, 3))
	}
	if got := AtLevel(key, 3, 3); got != key {
		t.Errorf("AtLevel same level = %d, want %d", got, key)
	}
}

func TestBoxKeyCorners(t *testing.T) {
	if got := BoxKey(0, 0, 0, 4); got != 0 {
		t.Errorf("BoxKey origin = %d", got)
	}
	// Just inside the far corner must land in the last box.
	want := encode(15, 15, 15)
	if got := BoxKey(0.9999, 0.9999, 0.9999, 4); got != want {
		t.Errorf("BoxKey corner = %d, want %d", got, want)
	}
	// Out-of-range coordinates clamp instead of wrapping.
	if got := BoxKey(1.5, -0.5, 0.5, 4); got != encode(15, 0, 8) {
		t.Errorf("BoxKey clamp = %d, want %d", got, encode(15, 0, 8))
	}
}

func TestBoxKeyLevelZero(t *testing.T) {
	if got := BoxKey(0.7, 0.2, 0.9, 0); got != 0 {
		t.Errorf("level 0 must map everything to box 0, got %d", got)
	}
}

func TestBoxKeySpatialLocality(t *testing.T) {
	// Two points in the same level-l box share the key prefix at level l.
	a := BoxKey(0.501, 0.501, 0.501, MaxLevel)
	b := BoxKey(0.502, 0.502, 0.502, MaxLevel)
	if AtLevel(a, MaxLevel, 8) != AtLevel(b, MaxLevel, 8) {
		t.Error("nearby points should share a coarse box")
	}
}

func TestNeighbors3Interior(t *testing.T) {
	key := encode(4, 4, 4)
	nb := Neighbors3(key, 4, false)
	if len(nb) != 27 {
		t.Fatalf("interior box: %d neighbors, want 27", len(nb))
	}
	seen := map[uint64]bool{}
	for _, k := range nb {
		if seen[k] {
			t.Errorf("duplicate neighbor %d", k)
		}
		seen[k] = true
	}
	if !seen[key] {
		t.Error("neighborhood must include the box itself")
	}
}

func TestNeighbors3CornerOpen(t *testing.T) {
	nb := Neighbors3(encode(0, 0, 0), 4, false)
	if len(nb) != 8 {
		t.Errorf("open corner box: %d neighbors, want 8", len(nb))
	}
}

func TestNeighbors3CornerPeriodic(t *testing.T) {
	nb := Neighbors3(encode(0, 0, 0), 4, true)
	if len(nb) != 27 {
		t.Errorf("periodic corner box: %d neighbors, want 27", len(nb))
	}
	// Wrapped neighbor (15,15,15) must be present.
	found := false
	for _, k := range nb {
		if k == encode(15, 15, 15) {
			found = true
		}
	}
	if !found {
		t.Error("periodic corner must wrap to the opposite corner")
	}
}

func TestNeighbors3Level1Periodic(t *testing.T) {
	// At level 1 (2 boxes per dim) periodic wrapping makes every box a
	// neighbor of every other, but each only once.
	nb := Neighbors3(0, 1, true)
	if len(nb) != 8 {
		t.Errorf("level-1 periodic: %d distinct neighbors, want 8", len(nb))
	}
}

func BenchmarkEncode(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += encode(uint32(i), uint32(i>>1), uint32(i>>2))
	}
	_ = acc
}

func BenchmarkBoxKey(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		u := float64(i%1000) / 1000
		acc += BoxKey(u, 1-u, u*u, 10)
	}
	_ = acc
}

func TestNeighbors3Symmetry(t *testing.T) {
	// The neighbor relation must be symmetric (both periodic and open) —
	// the property the solvers' push-based ghost exchanges rely on.
	f := func(xr, yr, zr uint8, periodic bool) bool {
		const level = 4
		x, y, z := uint32(xr)%16, uint32(yr)%16, uint32(zr)%16
		key := encode(x, y, z)
		for _, nb := range Neighbors3(key, level, periodic) {
			found := false
			for _, back := range Neighbors3(nb, level, periodic) {
				if back == key {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// AtLevel truncates a level-from key to a coarser level-to key.
func AtLevel(key uint64, from, to int) uint64 {
	if to > from {
		panic("zorder: AtLevel target level finer than source")
	}
	return key >> uint(3*(from-to))
}
