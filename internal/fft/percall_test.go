package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vmpi"
)

// perCallPass transforms every line of the row-major array a (index
// (x*ny+y)*nz+z) along one axis (0 = x, 1 = y, 2 = z) by gathering it,
// calling the reference kernel refTransformWith on it and scattering it
// back. It is the oracle of the 3D and slab passes.
func perCallPass(a []complex128, nx, ny, nz, axis int, inverse bool) {
	dims := [3]int{nx, ny, nz}
	stride := [3]int{ny * nz, nz, 1}
	u, v := (axis+1)%3, (axis+2)%3
	line := make([]complex128, dims[axis])
	for i := 0; i < dims[u]; i++ {
		for j := 0; j < dims[v]; j++ {
			base := i*stride[u] + j*stride[v]
			for k := range line {
				line[k] = a[base+k*stride[axis]]
			}
			refTransformWith(planFor(len(line)), line, inverse)
			for k := range line {
				a[base+k*stride[axis]] = line[k]
			}
		}
	}
}

func randomMesh(rng *rand.Rand, n int) []complex128 {
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

// requireSameBits requires got to hold want's bits in every real and
// imaginary part.
func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: element %d is %v, the reference gives %v", what, i, got[i], want[i])
		}
	}
}

// requireSameBitsOrNaN is requireSameBits with one exception: a NaN matches
// any NaN. The two fuzz targets use it for inputs with a planted NaN only
// (fuzzCheck), where NaNs meet other NaNs in the butterflies. When both
// operands of an SSE add or multiply are NaN, the result is the operand the
// compiler made the destination register, and for a commutative operation
// that choice follows the compiler's ordering of common subexpressions and
// its register allocation, not the source: two compiled copies of the same
// butterfly can return different NaNs. Every value that is not NaN — signed
// zeros, infinities and subnormals included — and the position of every NaN
// must still match bit for bit. Inputs without NaN never need the
// exception: the only NaNs they can produce (∞ − ∞, ∞ · 0) carry the same
// bits.
func requireSameBitsOrNaN(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	for i := range want {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: element %d is %v, the reference gives %v", what, i, got[i], want[i])
		}
	}
}

// fuzzCheck is the fuzz targets' check for an input planted with special:
// requireSameBitsOrNaN when special is a NaN, else requireSameBits.
func fuzzCheck(special float64) func(t *testing.T, what string, got, want []complex128) {
	if math.IsNaN(special) {
		return requireSameBitsOrNaN
	}
	return requireSameBits
}

func TestTransform3DBitIdenticalToPerCallTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, d := range [][3]int{{4, 8, 16}, {16, 4, 2}, {1, 8, 4}, {8, 1, 2}, {2, 2, 1}, {32, 32, 32},
		{1, 64, 64}, {64, 64, 64}} {
		for _, inverse := range []bool{false, true} {
			want := randomMesh(rng, d[0]*d[1]*d[2])
			got := append([]complex128(nil), want...)
			Transform3D(got, d[0], d[1], d[2], inverse)
			for _, axis := range []int{2, 1, 0} {
				perCallPass(want, d[0], d[1], d[2], axis, inverse)
			}
			requireSameBits(t, "Transform3D", got, want)
		}
	}
}

// checkPanel transforms a rows × rowLen panel with transformPanel and
// requires it, by the check same, to be what the reference kernel
// refTransformPanel gives.
func checkPanel(t *testing.T, a []complex128, rows, rowLen int, inverse bool,
	same func(t *testing.T, what string, got, want []complex128)) {
	t.Helper()
	want := append([]complex128(nil), a...)
	refTransformPanel(planFor(rows), want, rowLen, inverse)
	transformPanel(planFor(rows), a, rowLen, inverse)
	same(t, "transformPanel", a, want)
}

// TestPanelBitIdenticalToPerCallTransform covers the panel shapes the 3D
// sizes above do not: 1- and 2-row panels (no stage, one stage) and row
// lengths that are not powers of two.
func TestPanelBitIdenticalToPerCallTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, rows := range []int{1, 2, 8, 64, 256} {
		for _, rowLen := range []int{1, 3, 64, 135} {
			for _, inverse := range []bool{false, true} {
				checkPanel(t, randomMesh(rng, rows*rowLen), rows, rowLen, inverse, requireSameBits)
			}
		}
	}
}

// FuzzPanelMatchesPerCall is the differential fuzz of the panel kernel
// transformPanel against the reference refTransformPanel: rows = 2^k ≤ 256,
// row lengths 1…70, both directions. special is planted through the random
// data, negated on every other plant, so the committed corpus
// (testdata/fuzz) drives NaN, ±Inf and ±0 through every butterfly — the
// multiplies by w = 1 and by the inverse's 1/n are where a shortcut would
// flip a zero's sign.
func FuzzPanelMatchesPerCall(f *testing.F) {
	f.Add(uint8(6), uint8(63), false, int64(1), 1.5)
	f.Add(uint8(0), uint8(0), true, int64(2), 0.0)
	f.Add(uint8(8), uint8(69), true, int64(3), -2.0)
	f.Fuzz(func(t *testing.T, logRows, cols uint8, inverse bool, seed int64, special float64) {
		rows, rowLen := 1<<(logRows%9), 1+int(cols%70)
		a := randomMesh(rand.New(rand.NewSource(seed)), rows*rowLen)
		for i := 0; i < len(a); i += 3 {
			if i%2 == 0 {
				a[i] = complex(special, imag(a[i]))
			} else {
				a[i] = complex(real(a[i]), -special)
			}
		}
		checkPanel(t, a, rows, rowLen, inverse, fuzzCheck(special))
	})
}

// FuzzTransformMatchesReference is the differential fuzz of the line kernel
// transformWith, on one to four contiguous lines at once, against the
// reference refTransformWith line by line: n = 2^0 … 2^10, so both odd and
// even stage counts (a single radix-2 stage last, or none), both directions.
// special is planted as in FuzzPanelMatchesPerCall.
func FuzzTransformMatchesReference(f *testing.F) {
	f.Add(uint8(6), uint8(0), false, int64(1), 1.5)
	f.Add(uint8(0), uint8(3), true, int64(2), 0.0)
	f.Add(uint8(7), uint8(1), true, int64(3), -2.0)
	f.Fuzz(func(t *testing.T, logN, lines uint8, inverse bool, seed int64, special float64) {
		p := planFor(1 << (logN % 11))
		a := randomMesh(rand.New(rand.NewSource(seed)), p.n*(1+int(lines%4)))
		for i := 0; i < len(a); i += 3 {
			if i%2 == 0 {
				a[i] = complex(special, imag(a[i]))
			} else {
				a[i] = complex(real(a[i]), -special)
			}
		}
		want := append([]complex128(nil), a...)
		for line := want; len(line) > 0; line = line[p.n:] {
			refTransformWith(p, line[:p.n], inverse)
		}
		transformWith(p, a, inverse)
		fuzzCheck(special)(t, "transformWith", a, want)
	})
}

// TestSlabBitIdenticalToPerCallTransform replays the slab transform's pass
// order — forward z, y, x; inverse x, then z, y and the unit-length x pass
// of the per-plane 3D transform — with the reference kernel on gathered
// lines over the whole mesh. The shapes include the 64³ mesh md-pnfft runs
// on 8 ranks and one whose every axis has an odd stage count. It also pins
// the buffer contract callers rely on: InverseInto writes into its
// destination's array when the capacity suffices.
func TestSlabBitIdenticalToPerCallTransform(t *testing.T) {
	for _, tc := range []struct {
		nx, ny, nz int
		ranks      []int
	}{
		{8, 16, 4, []int{1, 2, 4, 8}},
		{64, 64, 64, []int{8}},
		{32, 128, 8, []int{8}},
	} {
		checkSlab(t, tc.nx, tc.ny, tc.nz, tc.ranks)
	}
}

func checkSlab(t *testing.T, nx, ny, nz int, ranks []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	full := randomMesh(rng, nx*ny*nz)
	wantSpec := append([]complex128(nil), full...)
	for _, axis := range []int{2, 1, 0} {
		perCallPass(wantSpec, nx, ny, nz, axis, false)
	}
	wantBack := append([]complex128(nil), wantSpec...)
	for _, axis := range []int{0, 2, 1} {
		perCallPass(wantBack, nx, ny, nz, axis, true)
	}
	unit := planFor(1)
	for i := range wantBack {
		refTransformWith(unit, wantBack[i:i+1], true)
	}

	for _, p := range ranks {
		st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
			s := NewSlab(c, nx, ny, nz)
			xLo, xHi := s.XRange(c.Rank())
			local := append([]complex128(nil), full[xLo*ny*nz:xHi*ny*nz]...)
			spec := s.ForwardInto(nil, local)
			// InverseInto consumes its input: transform a clone so spec
			// stays the spectrum. With a destination of sufficient
			// capacity, the result must be the destination's array.
			dst := make([]complex128, 0, (xHi-xLo)*ny*nz)
			back := s.InverseInto(dst, append([]complex128(nil), spec...))
			if len(back) > 0 && &back[0] != &dst[:1][0] {
				t.Errorf("ranks %d rank %d: InverseInto did not return its destination's backing array", p, c.Rank())
			}
			c.SetResult([2][]complex128{spec, back})
		})
		gotSpec := make([]complex128, nx*ny*nz)
		gotBack := make([]complex128, 0, nx*ny*nz)
		for r := 0; r < p; r++ {
			res := st.Values[r].([2][]complex128)
			i := 0
			for y := r * ny / p; y < (r+1)*ny/p; y++ {
				for x := 0; x < nx; x++ {
					copy(gotSpec[(x*ny+y)*nz:(x*ny+y+1)*nz], res[0][i:i+nz])
					i += nz
				}
			}
			gotBack = append(gotBack, res[1]...)
		}
		what := fmt.Sprintf("%d×%d×%d on %d ranks: Slab", nx, ny, nz, p)
		requireSameBits(t, what+".ForwardInto", gotSpec, wantSpec)
		requireSameBits(t, what+".InverseInto", gotBack, wantBack)
	}
}
