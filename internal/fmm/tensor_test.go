package fmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestTablesEnumeration(t *testing.T) {
	tb := NewTables(3)
	// C(3+3,3) = 20 indices with |α| ≤ 3.
	if tb.NCoef() != 20 {
		t.Fatalf("NCoef = %d, want 20", tb.NCoef())
	}
	// Degrees are non-decreasing along the list.
	for i := 1; i < len(tb.list); i++ {
		if tb.list[i].degree() < tb.list[i-1].degree() {
			t.Fatal("list not ordered by degree")
		}
	}
	// Every multi-index appears once.
	for i, m := range tb.list {
		if tb.index(m) != i {
			t.Fatalf("index(%v) = %d, want %d", m, tb.index(m), i)
		}
	}
}

// index returns the position of m in list, or −1.
func (t *Tables) index(m multiIndex) int {
	for i, x := range t.list {
		if x == m {
			return i
		}
	}
	return -1
}

// m2p directly evaluates the multipole expansion at displacement d from the
// source box center: φ = Σ_α M_α b_α(d).
func (t *Tables) m2p(M []float64, dx, dy, dz float64) float64 {
	b := make([]float64, t.NCoef())
	t.Deriv(dx, dy, dz, b)
	pot := 0.0
	for i := range t.list {
		pot += M[i] * b[i]
	}
	return pot
}

func TestDerivLowOrders(t *testing.T) {
	tb := NewTables(2)
	x, y, z := 1.3, -0.7, 2.1
	r := math.Sqrt(x*x + y*y + z*z)
	b := make([]float64, tb.NCoef())
	tb.Deriv(x, y, z, b)
	check := func(m multiIndex, want float64) {
		t.Helper()
		got := b[tb.index(m)]
		if math.Abs(got-want) > 1e-12*math.Abs(want)+1e-14 {
			t.Errorf("b[%v] = %g, want %g", m, got, want)
		}
	}
	check(multiIndex{0, 0, 0}, 1/r)
	check(multiIndex{1, 0, 0}, -x/(r*r*r))
	check(multiIndex{0, 1, 0}, -y/(r*r*r))
	check(multiIndex{0, 0, 1}, -z/(r*r*r))
	r5 := math.Pow(r, 5)
	check(multiIndex{2, 0, 0}, (3*x*x-r*r)/r5)
	check(multiIndex{0, 2, 0}, (3*y*y-r*r)/r5)
	check(multiIndex{1, 1, 0}, 3*x*y/r5)
	check(multiIndex{1, 0, 1}, 3*x*z/r5)
	check(multiIndex{0, 1, 1}, 3*y*z/r5)
}

func TestDerivMatchesFiniteDifferences(t *testing.T) {
	tb := NewTables(4)
	x, y, z := 0.9, 1.4, -1.1
	b := make([]float64, tb.NCoef())
	tb.Deriv(x, y, z, b)
	// Numerically differentiate lower-order tensors: b_{β+e_d} ≈
	// (b_β(x+h e_d) − b_β(x−h e_d)) / 2h.
	const h = 1e-5
	bp := make([]float64, tb.NCoef())
	bm := make([]float64, tb.NCoef())
	for d := 0; d < 3; d++ {
		dp := [3]float64{x, y, z}
		dm := dp
		dp[d] += h
		dm[d] -= h
		tb.Deriv(dp[0], dp[1], dp[2], bp)
		tb.Deriv(dm[0], dm[1], dm[2], bm)
		for i, m := range tb.list {
			if m.degree() >= tb.p {
				continue
			}
			up := m
			up[d]++
			num := (bp[i] - bm[i]) / (2 * h)
			got := b[tb.index(up)]
			if math.Abs(got-num) > 1e-5*(math.Abs(got)+1) {
				t.Errorf("∂_%d b[%v]: recurrence %g, numeric %g", d, m, got, num)
			}
		}
	}
}

func TestDerivLaplacianZero(t *testing.T) {
	// 1/r is harmonic: b_{2,0,0} + b_{0,2,0} + b_{0,0,2} = 0, and the same
	// for Laplacians of any derivative.
	tb := NewTables(5)
	b := make([]float64, tb.NCoef())
	tb.Deriv(0.4, -1.2, 0.8, b)
	for _, m := range tb.list {
		if m.degree() > tb.p-2 {
			continue
		}
		lap := b[tb.index(multiIndex{m[0] + 2, m[1], m[2]})] +
			b[tb.index(multiIndex{m[0], m[1] + 2, m[2]})] +
			b[tb.index(multiIndex{m[0], m[1], m[2] + 2})]
		scale := math.Abs(b[tb.index(m)]) + 1
		if math.Abs(lap) > 1e-9*scale {
			t.Errorf("Laplacian of b[%v] = %g, want 0", m, lap)
		}
	}
}

// randomCluster places n charges around a center within radius rad.
func randomCluster(rng *rand.Rand, n int, cx, cy, cz, rad float64) (pos []float64, q []float64) {
	pos = make([]float64, 3*n)
	q = make([]float64, n)
	for i := 0; i < n; i++ {
		pos[3*i] = cx + (rng.Float64()*2-1)*rad
		pos[3*i+1] = cy + (rng.Float64()*2-1)*rad
		pos[3*i+2] = cz + (rng.Float64()*2-1)*rad
		q[i] = rng.Float64()*2 - 1
	}
	return pos, q
}

// directPot sums q_j/|x−y_j|.
func directPot(pos, q []float64, x, y, z float64) float64 {
	pot := 0.0
	for j := range q {
		dx, dy, dz := x-pos[3*j], y-pos[3*j+1], z-pos[3*j+2]
		pot += q[j] / math.Sqrt(dx*dx+dy*dy+dz*dz)
	}
	return pot
}

func TestP2MThenM2PConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pos, q := randomCluster(rng, 40, 0, 0, 0, 0.5)
	// Evaluate at distance 3 (ratio ~ 0.29): error should fall fast with P.
	ex, ey, ez := 3.0, 0.5, -0.4
	want := directPot(pos, q, ex, ey, ez)
	var prevErr float64
	for pi, p := range []int{2, 4, 6, 8} {
		tb := NewTables(p)
		M := make([]float64, tb.NCoef())
		for j := range q {
			tb.p2m(q[j], pos[3*j], pos[3*j+1], pos[3*j+2], M)
		}
		got := tb.m2p(M, ex, ey, ez)
		err := math.Abs(got - want)
		if pi > 0 && err > prevErr*0.9 && err > 1e-12 {
			t.Errorf("P=%d: error %g did not shrink (prev %g)", p, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 1e-6*math.Abs(want) {
		t.Errorf("P=8 error %g too large (want %g)", prevErr, want)
	}
}

func TestM2MPreservesFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := NewTables(8)
	// Charges near child center (0.25, 0.25, 0.25); parent center at 0.
	pos, q := randomCluster(rng, 20, 0.25, 0.25, 0.25, 0.2)
	Mc := make([]float64, tb.NCoef())
	for j := range q {
		tb.p2m(q[j], pos[3*j]-0.25, pos[3*j+1]-0.25, pos[3*j+2]-0.25, Mc)
	}
	Mp := make([]float64, tb.NCoef())
	tb.m2m(Mc, 0.25, 0.25, 0.25, Mp)
	// Also build parent moments directly from the particles.
	Md := make([]float64, tb.NCoef())
	for j := range q {
		tb.p2m(q[j], pos[3*j], pos[3*j+1], pos[3*j+2], Md)
	}
	x, y, z := 4.0, -1.0, 2.0
	potShift := tb.m2p(Mp, x, y, z)
	potDirect := tb.m2p(Md, x, y, z)
	if math.Abs(potShift-potDirect) > 1e-10*(math.Abs(potDirect)+1) {
		t.Errorf("M2M: shifted %g vs direct %g", potShift, potDirect)
	}
}

func TestM2LPlusL2PMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := NewTables(8)
	// Source box centered at origin, radius 0.5; target box centered at
	// (2,0,0), radius 0.5: separation ratio ~0.43 like leaf-level FMM.
	pos, q := randomCluster(rng, 30, 0, 0, 0, 0.5)
	M := make([]float64, tb.NCoef())
	for j := range q {
		tb.p2m(q[j], pos[3*j], pos[3*j+1], pos[3*j+2], M)
	}
	b := make([]float64, tb.NCoef())
	tb.Deriv(2, 0, 0, b) // target center − source center
	L := make([]float64, tb.NCoef())
	tb.M2L(M, b, L)
	// Evaluate at several points in the target box.
	for trial := 0; trial < 10; trial++ {
		dx := (rng.Float64()*2 - 1) * 0.4
		dy := (rng.Float64()*2 - 1) * 0.4
		dz := (rng.Float64()*2 - 1) * 0.4
		pot, fx, fy, fz := tb.l2p(L, dx, dy, dz)
		want := directPot(pos, q, 2+dx, dy, dz)
		if relErr(pot, want) > 2e-3 {
			t.Errorf("L2P pot at (%g,%g,%g): %g, want %g", dx, dy, dz, pot, want)
		}
		// Field via numerical gradient of the direct potential.
		const h = 1e-5
		gx := -(directPot(pos, q, 2+dx+h, dy, dz) - directPot(pos, q, 2+dx-h, dy, dz)) / (2 * h)
		gy := -(directPot(pos, q, 2+dx, dy+h, dz) - directPot(pos, q, 2+dx, dy-h, dz)) / (2 * h)
		gz := -(directPot(pos, q, 2+dx, dy, dz+h) - directPot(pos, q, 2+dx, dy, dz-h)) / (2 * h)
		if math.Abs(fx-gx)+math.Abs(fy-gy)+math.Abs(fz-gz) > 1e-2*(math.Abs(gx)+math.Abs(gy)+math.Abs(gz)+1) {
			t.Errorf("L2P field (%g,%g,%g), want (%g,%g,%g)", fx, fy, fz, gx, gy, gz)
		}
	}
}

func TestL2LPreservesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tb := NewTables(6)
	// Arbitrary local expansion at parent center.
	Lp := make([]float64, tb.NCoef())
	for i := range Lp {
		Lp[i] = rng.Float64()*2 - 1
	}
	// Shift to child center s; evaluating child at (x−s) must equal parent
	// at x — exactly, because L2L is exact for polynomials of degree ≤ P.
	sx, sy, sz := 0.3, -0.2, 0.1
	Lc := make([]float64, tb.NCoef())
	tb.l2l(Lp, sx, sy, sz, Lc)
	for trial := 0; trial < 5; trial++ {
		x := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		pp, _, _, _ := tb.l2p(Lp, x[0], x[1], x[2])
		pc, _, _, _ := tb.l2p(Lc, x[0]-sx, x[1]-sy, x[2]-sz)
		if math.Abs(pp-pc) > 1e-10*(math.Abs(pp)+1) {
			t.Errorf("L2L: parent %g, child %g", pp, pc)
		}
	}
}

func TestM2LOpsPositive(t *testing.T) {
	tb := NewTables(5)
	if tb.m2lOps() <= 0 {
		t.Error("M2LOps must be positive")
	}
	if tb.m2lOps() != len(tb.m2l) {
		t.Error("M2LOps inconsistent")
	}
}

func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	s := math.Abs(want)
	if s < 1e-12 {
		s = 1e-12
	}
	return d / s
}

// BenchmarkOrderSweep reports the accuracy/cost trade-off of the expansion
// order — the ablation behind the solver's orderFor tuning table.
func BenchmarkOrderSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pos, q := randomCluster(rng, 50, 0, 0, 0, 0.5)
	want := directPot(pos, q, 2, 0.3, -0.2)
	for _, p := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			tb := NewTables(p)
			var got float64
			for i := 0; i < b.N; i++ {
				M := make([]float64, tb.NCoef())
				for j := range q {
					tb.p2m(q[j], pos[3*j], pos[3*j+1], pos[3*j+2], M)
				}
				bv := make([]float64, tb.NCoef())
				tb.Deriv(2, 0.3, -0.2, bv)
				L := make([]float64, tb.NCoef())
				tb.M2L(M, bv, L)
				got, _, _, _ = tb.l2p(L, 0, 0, 0)
			}
			b.ReportMetric(math.Abs(got-want)/math.Abs(want), "relerr")
			b.ReportMetric(float64(tb.m2lOps()), "m2l-ops")
		})
	}
}
