package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vmpi"
)

func TestTransformKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is all ones.
	a := []complex128{1, 0, 0, 0}
	Transform(a, false)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("a[%d] = %v, want 1", i, v)
		}
	}
	// DFT of constant is a delta at k=0.
	b := []complex128{2, 2, 2, 2}
	Transform(b, false)
	if cmplx.Abs(b[0]-8) > 1e-12 {
		t.Errorf("b[0] = %v, want 8", b[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(b[i]) > 1e-12 {
			t.Errorf("b[%d] = %v, want 0", i, b[i])
		}
	}
}

func TestTransformSingleFrequency(t *testing.T) {
	const n = 16
	a := make([]complex128, n)
	for j := range a {
		ph := 2 * math.Pi * 3 * float64(j) / n
		a[j] = complex(math.Cos(ph), math.Sin(ph)) // e^{+2πi·3j/n}
	}
	Transform(a, false)
	for k := range a {
		want := complex(0, 0)
		if k == 3 {
			want = complex(n, 0)
		}
		if cmplx.Abs(a[k]-want) > 1e-10 {
			t.Errorf("a[%d] = %v, want %v", k, a[k], want)
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(8))
		a := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = a[i]
		}
		Transform(a, false)
		Transform(a, true)
		for i := range a {
			if cmplx.Abs(a[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTransformParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 64
	a := make([]complex128, n)
	var sumTime float64
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		sumTime += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
	}
	Transform(a, false)
	var sumFreq float64
	for _, v := range a {
		sumFreq += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(sumFreq/float64(n)-sumTime) > 1e-9*sumTime {
		t.Errorf("Parseval: %g vs %g", sumFreq/float64(n), sumTime)
	}
}

func TestTransformPanicsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Transform(make([]complex128, 6), false)
}

func TestTransform3DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nx, ny, nz = 4, 8, 2
	a := make([]complex128, nx*ny*nz)
	orig := make([]complex128, len(a))
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = a[i]
	}
	Transform3D(a, nx, ny, nz, false)
	Transform3D(a, nx, ny, nz, true)
	for i := range a {
		if cmplx.Abs(a[i]-orig[i]) > 1e-9 {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestTransform3DSeparability(t *testing.T) {
	// A plane wave transforms to a single spectral peak.
	const nx, ny, nz = 8, 8, 8
	a := make([]complex128, nx*ny*nz)
	kx, ky, kz := 2, 5, 1
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				ph := 2 * math.Pi * (float64(kx*x)/nx + float64(ky*y)/ny + float64(kz*z)/nz)
				a[(x*ny+y)*nz+z] = complex(math.Cos(ph), math.Sin(ph))
			}
		}
	}
	Transform3D(a, nx, ny, nz, false)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				v := a[(x*ny+y)*nz+z]
				want := complex(0, 0)
				if x == kx && y == ky && z == kz {
					want = complex(nx*ny*nz, 0)
				}
				if cmplx.Abs(v-want) > 1e-8 {
					t.Fatalf("spectrum[%d,%d,%d] = %v, want %v", x, y, z, v, want)
				}
			}
		}
	}
}

func TestSlabMatchesSerial(t *testing.T) {
	const nx, ny, nz = 8, 8, 4
	rng := rand.New(rand.NewSource(11))
	full := make([]complex128, nx*ny*nz)
	for i := range full {
		full[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]complex128, len(full))
	copy(want, full)
	Transform3D(want, nx, ny, nz, false)

	for _, p := range []int{1, 2, 4, 8} {
		st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
			s := NewSlab(c, nx, ny, nz)
			xLo, xHi := s.XRange(c.Rank())
			local := make([]complex128, (xHi-xLo)*ny*nz)
			copy(local, full[xLo*ny*nz:xHi*ny*nz])
			spec := s.Forward(local)
			c.SetResult(spec)
		})
		// Reassemble the y-slab spectrum.
		got := make([]complex128, nx*ny*nz)
		for r := 0; r < p; r++ {
			spec := st.Values[r].([]complex128)
			yLo, yHi := (&Slab{Nx: nx, Ny: ny, Nz: nz, c: nil}).yRangeFor(r, p)
			i := 0
			for y := yLo; y < yHi; y++ {
				for x := 0; x < nx; x++ {
					copy(got[(x*ny+y)*nz:(x*ny+y+1)*nz], spec[i:i+nz])
					i += nz
				}
			}
		}
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("p=%d: spectrum[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

// yRangeFor computes YRange without a communicator (test helper).
func (s *Slab) yRangeFor(r, p int) (int, int) {
	return r * s.Ny / p, (r + 1) * s.Ny / p
}

func TestSlabRoundTripParallel(t *testing.T) {
	const nx, ny, nz = 8, 4, 4
	rng := rand.New(rand.NewSource(13))
	full := make([]complex128, nx*ny*nz)
	for i := range full {
		full[i] = complex(rng.NormFloat64(), 0)
	}
	const p = 4
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		s := NewSlab(c, nx, ny, nz)
		xLo, xHi := s.XRange(c.Rank())
		local := make([]complex128, (xHi-xLo)*ny*nz)
		copy(local, full[xLo*ny*nz:xHi*ny*nz])
		spec := s.Forward(local)
		back := s.Inverse(spec)
		c.SetResult(back)
	})
	for r := 0; r < p; r++ {
		back := st.Values[r].([]complex128)
		xLo := r * nx / p
		for i, v := range back {
			if cmplx.Abs(v-full[xLo*ny*nz+i]) > 1e-9 {
				t.Fatalf("rank %d: round trip mismatch at %d", r, i)
			}
		}
	}
}

// TestSlabTransposeBalancesPool pins the transposes' buffer lifecycle: every
// per-destination buffer is drawn from the vmpi pool (vmpi.Owned),
// relinquished to the all-to-all and released by its receiver, so the pool's
// in-use meter ends where it started. (Before, the buffers were plain makes
// of pool shape and every release drove the meter down.) Only the meter is
// asserted: sync.Pool may drop entries at any GC and under -race, so hit
// counts are not stable.
func TestSlabTransposeBalancesPool(t *testing.T) {
	const p, n = 8, 16
	before := vmpi.PoolStatsSnapshot()
	vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		s := NewSlab(c, n, n, n)
		a := make([]complex128, s.LocalXSize()*n*n)
		for i := range a {
			a[i] = complex(float64(i%7), float64(c.Rank()))
		}
		s.InverseInto(nil, s.ForwardInto(nil, a))
	})
	after := vmpi.PoolStatsSnapshot()
	if after.Gets == before.Gets {
		t.Fatal("the transposes drew nothing from the pool")
	}
	if after.InUseBytes != before.InUseBytes {
		t.Fatalf("pool in-use meter moved by %d bytes across a forward + inverse slab transform",
			after.InUseBytes-before.InUseBytes)
	}
}

// referenceTransform is the pre-plan-cache in-line transform, kept verbatim
// as the bit-identity oracle: the cached bit-reversal permutation and twiddle
// tables must reproduce its output exactly (==, not within tolerance).
func referenceTransform(a []complex128, inverse bool) {
	n := len(a)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("fft: length must be a power of two")
	}
	shift := 64 - uint(bitsLen(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		if !inverse {
			ang = -ang
		}
		wstep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < size/2; k++ {
				u := a[start+k]
				v := a[start+k+size/2] * w
				a[start+k] = u + v
				a[start+k+size/2] = u - v
				w *= wstep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range a {
			a[i] *= inv
		}
	}
}

func bitsLen(x uint) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}

func reverse64(x uint64) uint64 {
	var r uint64
	for i := 0; i < 64; i++ {
		r = r<<1 | x&1
		x >>= 1
	}
	return r
}

func TestTransformBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		for _, inverse := range []bool{false, true} {
			a := make([]complex128, n)
			ref := make([]complex128, n)
			for i := range a {
				a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				ref[i] = a[i]
			}
			Transform(a, inverse)
			referenceTransform(ref, inverse)
			for i := range a {
				if a[i] != ref[i] {
					t.Fatalf("n=%d inverse=%v: plan-cached Transform drifted from reference at [%d]: %v != %v",
						n, inverse, i, a[i], ref[i])
				}
			}
		}
	}
}

func BenchmarkTransform1024(b *testing.B) {
	a := make([]complex128, 1024)
	for i := range a {
		a[i] = complex(float64(i%17), float64(i%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform(a, false)
	}
}

// BenchmarkTransform3D32 reports allocations: with the plan cache and the
// in-place panel passes the steady state is 0 allocs/op.
func BenchmarkTransform3D32(b *testing.B) {
	a := make([]complex128, 32*32*32)
	for i := range a {
		a[i] = complex(float64(i%17), 0)
	}
	Transform3D(a, 32, 32, 32, false) // warm the plan cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform3D(a, 32, 32, 32, false)
	}
}

// BenchmarkTransform3D64 is the mesh md-pnfft really runs (Tune picks 64³).
// Its 4 MB x panel does not fit a cache level the way Transform3D32's 16 KB
// columns do, so this — not the 32³ benchmark — is where the column passes
// show.
func BenchmarkTransform3D64(b *testing.B) {
	a := make([]complex128, 64*64*64)
	for i := range a {
		a[i] = complex(float64(i%17), float64(i%5))
	}
	Transform3D(a, 64, 64, 64, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform3D(a, 64, 64, 64, i&1 == 1)
	}
}

// BenchmarkSlabP8Mesh64 is one forward + inverse slab transform of the 64³
// mesh on 8 ranks (8 × 64 × 64 per rank), transposes included; B/op is what
// the per-destination transpose buffers cost the host.
func BenchmarkSlabP8Mesh64(b *testing.B) {
	const p, n = 8, 64
	b.ReportAllocs()
	vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		s := NewSlab(c, n, n, n)
		a := make([]complex128, s.LocalXSize()*n*n)
		for i := range a {
			a[i] = complex(float64(i%17), float64(i%5))
		}
		var spec, back []complex128
		for i := -2; i < b.N; i++ { // two untimed rounds fill the message pool
			if i == 0 && c.Rank() == 0 {
				b.ResetTimer()
			}
			spec = s.ForwardInto(spec, a)
			back = s.InverseInto(back, spec)
		}
	})
}
