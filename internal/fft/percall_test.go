package fft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vmpi"
)

// perCallPass transforms every line of the row-major array a (index
// (x*ny+y)*nz+z) along one axis (0 = x, 1 = y, 2 = z) with one exported
// Transform call per line — a plan lookup each, as the 3D and slab passes
// did before they resolved the plan once per pass. It is their oracle.
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
			Transform(line, inverse)
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

func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: element %d is %v, per-call Transform gives %v", what, i, got[i], want[i])
		}
	}
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
// requires every column to be what gathering it, calling Transform and
// scattering it back gives.
func checkPanel(t *testing.T, a []complex128, rows, rowLen int, inverse bool) {
	t.Helper()
	want := append([]complex128(nil), a...)
	perCallPass(want, rows, rowLen, 1, 0, inverse)
	transformPanel(planFor(rows), a, rowLen, inverse)
	requireSameBits(t, "transformPanel", a, want)
}

// TestPanelBitIdenticalToPerCallTransform covers the panel shapes the 3D
// sizes above do not: 1- and 2-row panels (no stage, one stage) and row
// lengths that are not powers of two.
func TestPanelBitIdenticalToPerCallTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, rows := range []int{1, 2, 8, 64, 256} {
		for _, rowLen := range []int{1, 3, 64, 135} {
			for _, inverse := range []bool{false, true} {
				checkPanel(t, randomMesh(rng, rows*rowLen), rows, rowLen, inverse)
			}
		}
	}
}

// FuzzPanelMatchesPerCall is the differential fuzz of the panel kernel
// against per-call Transform on gathered columns: rows = 2^k ≤ 256, row
// lengths 1…70, both directions. special is planted through the random data,
// negated on every other plant, so the committed corpus (testdata/fuzz)
// drives NaN, ±Inf and ±0 through every butterfly — the multiplies by w = 1
// and by the inverse's 1/n are where a shortcut would flip a zero's sign.
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
		checkPanel(t, a, rows, rowLen, inverse)
	})
}

// TestSlabBitIdenticalToPerCallTransform replays the slab transform's pass
// order — forward z, y, x; inverse x, then z, y and the unit-length x pass
// of the per-plane 3D transform — with per-call Transforms on the whole mesh.
func TestSlabBitIdenticalToPerCallTransform(t *testing.T) {
	const nx, ny, nz = 8, 16, 4
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
	for i := range wantBack {
		one := []complex128{wantBack[i]}
		Transform(one, true)
		wantBack[i] = one[0]
	}

	for _, p := range []int{1, 2, 4, 8} {
		st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
			s := NewSlab(c, nx, ny, nz)
			xLo, xHi := s.XRange(c.Rank())
			local := append([]complex128(nil), full[xLo*ny*nz:xHi*ny*nz]...)
			spec := s.ForwardInto(nil, local)
			back := s.InverseInto(nil, spec)
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
		requireSameBits(t, "Slab.ForwardInto", gotSpec, wantSpec)
		requireSameBits(t, "Slab.InverseInto", gotBack, wantBack)
	}
}
