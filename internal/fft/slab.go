package fft

import (
	"fmt"

	"repro/internal/costs"
	"repro/internal/vmpi"
)

// Slab is a distributed-memory 3D FFT with 1D (slab) decomposition: in real
// space every rank owns a contiguous block of x-planes; after the forward
// transform every rank owns a block of y-planes of the spectrum. The
// transpose between the two layouts is a collective all-to-all — the
// communication pattern that dominates parallel FFTs.
//
// A Slab doubles as the rank's FFT compute plan: it holds the reusable
// transpose work buffer, so repeated transforms (the solver calls Forward
// once and Inverse four times per far-field evaluation, every step) stop
// allocating. Like a vmpi.Comm, a Slab is bound to its rank's goroutine.
type Slab struct {
	c          *vmpi.Comm
	Nx, Ny, Nz int

	work []complex128 // reusable pre-transpose staging buffer (Inverse)
}

// NewSlab creates a slab FFT plan over the communicator. Dimensions must be
// powers of two.
func NewSlab(c *vmpi.Comm, nx, ny, nz int) *Slab {
	for _, n := range []int{nx, ny, nz} {
		if n < 1 || n&(n-1) != 0 {
			panic(fmt.Sprintf("fft: slab dimension %d not a power of two", n))
		}
	}
	return &Slab{c: c, Nx: nx, Ny: ny, Nz: nz}
}

// XRange returns the x-plane block [lo, hi) owned by rank r in real space.
func (s *Slab) XRange(r int) (lo, hi int) {
	p := s.c.Size()
	return r * s.Nx / p, (r + 1) * s.Nx / p
}

// YRange returns the y-plane block [lo, hi) owned by rank r in the
// transposed (spectral) layout.
func (s *Slab) YRange(r int) (lo, hi int) {
	p := s.c.Size()
	return r * s.Ny / p, (r + 1) * s.Ny / p
}

// LocalXSize returns the number of x-planes owned by the calling rank.
func (s *Slab) LocalXSize() int {
	lo, hi := s.XRange(s.c.Rank())
	return hi - lo
}

// LocalYSize returns the number of y-planes owned by the calling rank in
// the transposed layout.
func (s *Slab) LocalYSize() int {
	lo, hi := s.YRange(s.c.Rank())
	return hi - lo
}

// grow returns buf resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified; callers overwrite
// every element.
func grow(buf []complex128, n int) []complex128 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]complex128, n)
}

// Forward transforms a real-space x-slab a (flat [lx][Ny][Nz], row-major)
// into the fully transformed spectrum in y-slab layout (flat [ly][Nx][Nz]).
// Every rank must call it collectively. The result is freshly allocated;
// ForwardInto reuses a caller buffer instead.
func (s *Slab) Forward(a []complex128) []complex128 {
	return s.ForwardInto(nil, a)
}

// ForwardInto is Forward writing its result into dst (grown as needed; pass
// nil to allocate) and returning it. a is transformed in place before the
// transpose, as before.
func (s *Slab) ForwardInto(dst, a []complex128) []complex128 {
	lx := s.LocalXSize()
	if len(a) != lx*s.Ny*s.Nz {
		panic("fft: slab input size mismatch")
	}
	// FFT over (y, z) within each owned x-plane.
	for x := 0; x < lx; x++ {
		Transform3D(a[x*s.Ny*s.Nz:(x+1)*s.Ny*s.Nz], 1, s.Ny, s.Nz, false)
	}
	s.c.Compute(float64(lx) * (float64(s.Ny)*costs.FFTTime(s.Nz) + float64(s.Nz)*costs.FFTTime(s.Ny)))

	b := s.transposeXtoY(dst, a)

	// FFT along x for every (y, z) of the owned y-slab: each y-plane is a
	// panel of Nx rows of Nz columns.
	ly := s.LocalYSize()
	px := planFor(s.Nx)
	for y := 0; y < ly; y++ {
		transformPanel(px, b[y*s.Nx*s.Nz:(y+1)*s.Nx*s.Nz], s.Nz, false)
	}
	s.c.Compute(float64(ly) * float64(s.Nz) * costs.FFTTime(s.Nx))
	return b
}

// Inverse transforms a spectrum in y-slab layout back to real space in
// x-slab layout, including normalization. The input is left untouched and
// the result is freshly allocated; InverseInto reuses a caller buffer.
func (s *Slab) Inverse(b []complex128) []complex128 {
	return s.InverseInto(nil, b)
}

// InverseInto is Inverse writing its result into dst (grown as needed; pass
// nil to allocate) and returning it.
func (s *Slab) InverseInto(dst, b []complex128) []complex128 {
	ly := s.LocalYSize()
	if len(b) != ly*s.Nx*s.Nz {
		panic("fft: slab spectrum size mismatch")
	}
	s.work = grow(s.work, len(b))
	work := s.work
	copy(work, b)
	px := planFor(s.Nx)
	for y := 0; y < ly; y++ {
		transformPanel(px, work[y*s.Nx*s.Nz:(y+1)*s.Nx*s.Nz], s.Nz, true)
	}
	s.c.Compute(float64(ly) * float64(s.Nz) * costs.FFTTime(s.Nx))

	a := s.transposeYtoX(dst, work)

	lx := s.LocalXSize()
	for x := 0; x < lx; x++ {
		Transform3D(a[x*s.Ny*s.Nz:(x+1)*s.Ny*s.Nz], 1, s.Ny, s.Nz, true)
	}
	s.c.Compute(float64(lx) * (float64(s.Ny)*costs.FFTTime(s.Nz) + float64(s.Nz)*costs.FFTTime(s.Ny)))
	return a
}

// transposeXtoY redistributes from x-slabs [lx][Ny][Nz] to y-slabs
// [ly][Nx][Nz] with one all-to-all, scattering into dst (grown as needed).
// The per-destination buffers are drawn from the vmpi message pool
// (vmpi.Owned), relinquished to the all-to-all (zero-copy), and released back
// to the pool by their receivers after scattering, so a steady run transposes
// through the same buffers every step — message sizes and virtual cost are
// exactly those of the copying version.
func (s *Slab) transposeXtoY(dst, a []complex128) []complex128 {
	c := s.c
	p := c.Size()
	myXLo, myXHi := s.XRange(c.Rank())
	parts := make([][]complex128, p)
	for r := 0; r < p; r++ {
		yLo, yHi := s.YRange(r)
		part := vmpi.Owned[complex128]((myXHi - myXLo) * (yHi - yLo) * s.Nz)
		for x := 0; x < myXHi-myXLo; x++ {
			for y := yLo; y < yHi; y++ {
				row := a[(x*s.Ny+y)*s.Nz : (x*s.Ny+y+1)*s.Nz]
				part = append(part, row...)
			}
		}
		parts[r] = part
	}
	recv := vmpi.AlltoallOwned(c, parts)
	myYLo, myYHi := s.YRange(c.Rank())
	ly := myYHi - myYLo
	b := grow(dst, ly*s.Nx*s.Nz)
	for r := 0; r < p; r++ {
		xLo, xHi := s.XRange(r)
		blk := recv[r]
		want := (xHi - xLo) * ly * s.Nz
		if len(blk) != want {
			panic("fft: transpose block size mismatch")
		}
		i := 0
		for x := xLo; x < xHi; x++ {
			for y := 0; y < ly; y++ {
				copy(b[(y*s.Nx+x)*s.Nz:(y*s.Nx+x+1)*s.Nz], blk[i:i+s.Nz])
				i += s.Nz
			}
		}
	}
	vmpi.ReleaseBlocks(recv)
	c.Compute(costs.Move * float64(len(b)) * 2)
	return b
}

// transposeYtoX is the inverse redistribution.
func (s *Slab) transposeYtoX(dst, b []complex128) []complex128 {
	c := s.c
	p := c.Size()
	myYLo, myYHi := s.YRange(c.Rank())
	ly := myYHi - myYLo
	parts := make([][]complex128, p)
	for r := 0; r < p; r++ {
		xLo, xHi := s.XRange(r)
		part := vmpi.Owned[complex128]((xHi - xLo) * ly * s.Nz)
		for x := xLo; x < xHi; x++ {
			for y := 0; y < ly; y++ {
				row := b[(y*s.Nx+x)*s.Nz : (y*s.Nx+x+1)*s.Nz]
				part = append(part, row...)
			}
		}
		parts[r] = part
	}
	recv := vmpi.AlltoallOwned(c, parts)
	myXLo, myXHi := s.XRange(c.Rank())
	lx := myXHi - myXLo
	a := grow(dst, lx*s.Ny*s.Nz)
	for r := 0; r < p; r++ {
		yLo, yHi := s.YRange(r)
		blk := recv[r]
		want := lx * (yHi - yLo) * s.Nz
		if len(blk) != want {
			panic("fft: transpose block size mismatch")
		}
		i := 0
		for x := 0; x < lx; x++ {
			for y := yLo; y < yHi; y++ {
				copy(a[(x*s.Ny+y)*s.Nz:(x*s.Ny+y+1)*s.Nz], blk[i:i+s.Nz])
				i += s.Nz
			}
		}
	}
	vmpi.ReleaseBlocks(recv)
	c.Compute(costs.Move * float64(len(a)) * 2)
	return a
}
