package particle

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vmpi"
)

func TestCubicBox(t *testing.T) {
	b := NewCubicBox(248, true)
	if !b.Orthorhombic() {
		t.Fatal("cubic box must be orthorhombic")
	}
	l := b.Lengths()
	if l != [3]float64{248, 248, 248} {
		t.Errorf("Lengths = %v", l)
	}
	if v := b.Volume(); v != 248*248*248 {
		t.Errorf("Volume = %g", v)
	}
}

func TestToUnitPeriodicWrap(t *testing.T) {
	b := NewCubicBox(10, true)
	ux, uy, uz := b.ToUnit(12, -3, 5)
	if math.Abs(ux-0.2) > 1e-12 || math.Abs(uy-0.7) > 1e-12 || math.Abs(uz-0.5) > 1e-12 {
		t.Errorf("ToUnit = %g %g %g", ux, uy, uz)
	}
}

func TestToUnitOpenClamp(t *testing.T) {
	b := NewCubicBox(10, false)
	ux, uy, uz := b.ToUnit(-5, 15, 5)
	if ux != 0 || uy != 1 || uz != 0.5 {
		t.Errorf("ToUnit clamp = %g %g %g", ux, uy, uz)
	}
}

func TestToUnitRangeProperty(t *testing.T) {
	b := NewCubicBox(7.5, true)
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		ux, uy, uz := b.ToUnit(x, y, z)
		return ux >= 0 && ux < 1 && uy >= 0 && uy < 1 && uz >= 0 && uz < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapIdempotent(t *testing.T) {
	b := NewCubicBox(5, true)
	x, y, z := b.Wrap(13.2, -1.5, 2.5)
	x2, y2, z2 := b.Wrap(x, y, z)
	if x != x2 || y != y2 || z != z2 {
		t.Errorf("Wrap not idempotent: (%g,%g,%g) vs (%g,%g,%g)", x, y, z, x2, y2, z2)
	}
	if x < 0 || x >= 5 || y < 0 || y >= 5 {
		t.Errorf("Wrap out of box: %g %g %g", x, y, z)
	}
}

func TestMinImage(t *testing.T) {
	b := NewCubicBox(10, true)
	dx, dy, dz := b.MinImage(9, -9, 4)
	if dx != -1 || dy != 1 || dz != 4 {
		t.Errorf("MinImage = %g %g %g, want -1 1 4", dx, dy, dz)
	}
	// Open box: unchanged.
	bo := NewCubicBox(10, false)
	dx, _, _ = bo.MinImage(9, -9, 4)
	if dx != 9 {
		t.Errorf("open-box MinImage changed displacement: %g", dx)
	}
}

func TestMinImageHalfBoxBound(t *testing.T) {
	b := NewCubicBox(8, true)
	f := func(dx, dy, dz float64) bool {
		if math.IsNaN(dx) || math.Abs(dx) > 1e9 {
			return true
		}
		mx, my, mz := b.MinImage(dx, dy, dz)
		return math.Abs(mx) <= 4+1e-9 && math.Abs(my) <= 4+1e-9 && math.Abs(mz) <= 4+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSilicaMeltProperties(t *testing.T) {
	s := SilicaMelt(1000, 24.8, true, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N < 900 || s.N > 1000 {
		t.Errorf("N = %d, want ~1000", s.N)
	}
	if q := s.TotalCharge(); math.Abs(q) > 1e-12 {
		t.Errorf("net charge = %g, want 0", q)
	}
	// All positions inside the box.
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			v := s.Pos[3*i+d]
			if v < 0 || v >= 24.8 {
				t.Fatalf("particle %d dim %d out of box: %g", i, d, v)
			}
		}
	}
	// Charges are ±1 (except possibly the neutralizing last one).
	for i := 0; i < s.N-1; i++ {
		if math.Abs(math.Abs(s.Q[i])-1) > 1e-12 {
			t.Fatalf("charge %d = %g", i, s.Q[i])
		}
	}
}

func TestSilicaMeltHomogeneous(t *testing.T) {
	// Octant occupancy should be roughly uniform (homogeneous system).
	s := SilicaMelt(4096, 10, true, 2)
	var count [8]int
	for i := 0; i < s.N; i++ {
		oct := 0
		for d := 0; d < 3; d++ {
			if s.Pos[3*i+d] >= 5 {
				oct |= 1 << d
			}
		}
		count[oct]++
	}
	want := s.N / 8
	for o, c := range count {
		if c < want/2 || c > want*2 {
			t.Errorf("octant %d has %d particles, want ~%d", o, c, want)
		}
	}
}

func TestSilicaMeltDeterministic(t *testing.T) {
	a := SilicaMelt(500, 10, true, 7)
	b := SilicaMelt(500, 10, true, 7)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("generator not deterministic")
		}
	}
	c := SilicaMelt(500, 10, true, 8)
	same := true
	for i := range a.Pos {
		if a.Pos[i] != c.Pos[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical systems")
	}
}

func TestUniformRandomNeutralAndInBox(t *testing.T) {
	s := UniformRandom(777, 5, true, 3)
	if math.Abs(s.TotalCharge()) > 1e-12 {
		t.Errorf("net charge = %g", s.TotalCharge())
	}
	for i := 0; i < 3*s.N; i++ {
		if s.Pos[i] < 0 || s.Pos[i] >= 5 {
			t.Fatalf("position out of box: %g", s.Pos[i])
		}
	}
}

func TestGaussianBlobConcentrated(t *testing.T) {
	s := GaussianBlob(2000, 16, false, 4)
	center := 0
	for i := 0; i < s.N; i++ {
		in := true
		for d := 0; d < 3; d++ {
			if math.Abs(s.Pos[3*i+d]-8) > 4 {
				in = false
			}
		}
		if in {
			center++
		}
	}
	if center < s.N/2 {
		t.Errorf("blob not concentrated: %d/%d in central half-box", center, s.N)
	}
}

func TestDistributeSingle(t *testing.T) {
	s := SilicaMelt(300, 10, true, 1)
	st := vmpi.Run(vmpi.Config{Ranks: 4}, func(c *vmpi.Comm) {
		l := Distribute(c, s, DistSingle, 0)
		c.SetResult(l.N)
	})
	if st.Values[0].(int) != s.N {
		t.Errorf("rank 0 has %d, want %d", st.Values[0].(int), s.N)
	}
	for r := 1; r < 4; r++ {
		if st.Values[r].(int) != 0 {
			t.Errorf("rank %d has %d particles, want 0", r, st.Values[r].(int))
		}
	}
}

func TestDistributeRandomConserves(t *testing.T) {
	s := SilicaMelt(500, 10, true, 1)
	st := vmpi.Run(vmpi.Config{Ranks: 5}, func(c *vmpi.Comm) {
		l := Distribute(c, s, DistRandom, 42)
		sumQ := 0.0
		for i := 0; i < l.N; i++ {
			sumQ += l.Q[i]
		}
		c.SetResult([2]float64{float64(l.N), sumQ})
	})
	totalN, totalQ := 0.0, 0.0
	for r := 0; r < 5; r++ {
		v := st.Values[r].([2]float64)
		totalN += v[0]
		totalQ += v[1]
		if v[0] == float64(s.N) {
			t.Errorf("rank %d got all particles; distribution not random", r)
		}
	}
	if int(totalN) != s.N {
		t.Errorf("total particles %d, want %d", int(totalN), s.N)
	}
	if math.Abs(totalQ) > 1e-9 {
		t.Errorf("total charge %g", totalQ)
	}
}

func TestDistributeGridMatchesGridRank(t *testing.T) {
	s := SilicaMelt(600, 12, true, 9)
	const p = 8
	dims := vmpi.DimsCreate(p, 3)
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		l := Distribute(c, s, DistGrid, 0)
		// Every local particle must map back to this rank.
		for i := 0; i < l.N; i++ {
			if GridRank(&l.Box, dims, l.Pos[3*i], l.Pos[3*i+1], l.Pos[3*i+2]) != c.Rank() {
				t.Errorf("rank %d holds foreign particle", c.Rank())
			}
		}
		c.SetResult(l.N)
	})
	total := 0
	for _, v := range st.Values {
		total += v.(int)
	}
	if total != s.N {
		t.Errorf("total %d, want %d", total, s.N)
	}
	// Homogeneous system on a grid: loads should be within 3x of average.
	avg := s.N / p
	for r, v := range st.Values {
		n := v.(int)
		if n < avg/3 || n > avg*3 {
			t.Errorf("rank %d load %d far from average %d", r, n, avg)
		}
	}
}

func TestGridRankCoversAllRanks(t *testing.T) {
	box := NewCubicBox(1, true)
	dims := []int{2, 3, 2}
	seen := map[int]bool{}
	for x := 0.05; x < 1; x += 0.1 {
		for y := 0.05; y < 1; y += 0.1 {
			for z := 0.05; z < 1; z += 0.1 {
				r := GridRank(&box, dims, x, y, z)
				if r < 0 || r >= 12 {
					t.Fatalf("GridRank out of range: %d", r)
				}
				seen[r] = true
			}
		}
	}
	if len(seen) != 12 {
		t.Errorf("only %d of 12 ranks used", len(seen))
	}
}

func TestLocalCapacity(t *testing.T) {
	if c := localCapacity(1000, 4); c < 250 {
		t.Errorf("capacity %d below average load", c)
	}
	if c := localCapacity(1000, 4); c > 1000 {
		t.Errorf("capacity %d exceeds total", c)
	}
	if c := localCapacity(10, 20); c < 1 {
		t.Errorf("capacity %d < 1", c)
	}
}

func TestLocalAppendAndCapPanic(t *testing.T) {
	l := NewLocal(NewCubicBox(1, false), 2)
	l.Append(0.1, 0.2, 0.3, 1, 0, 0, 0)
	l.Append(0.4, 0.5, 0.6, -1, 0, 0, 0)
	if l.N != 2 {
		t.Fatalf("N = %d", l.N)
	}
	defer func() {
		if recover() == nil {
			t.Error("Append beyond capacity should panic")
		}
	}()
	l.Append(0.7, 0.8, 0.9, 1, 0, 0, 0)
}
