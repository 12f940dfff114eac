// Package fft implements the complex fast Fourier transforms used by the
// P2NFFT solver's Fourier-space far field: an iterative radix-2 transform
// whose memory passes each run two butterfly stages (radix-2²), serial 3D
// transforms, and a distributed slab-decomposed 3D transform with an
// all-to-all transpose (slab.go).
//
// Every kernel computes each butterfly exactly as a one-stage-per-pass
// radix-2 transform does — v = hi·w, then u+v and u−v, on the same operands
// — and applies the inverse's ×(1/n + 0i) as a complex multiply, so only the
// order in which butterflies are worked on differs and every result is bit
// for bit that transform's (the reference kernels in ref_test.go). The one
// exception is which NaN an add or multiply of two NaNs returns, sign and
// payload: IEEE 754 leaves it open, and the compiler's ordering of the
// operands, not the source, decides it. Nothing is skipped:
// a multiply by w = 1 or by 1+0i can flip a zero's sign, since
// (−0)·1 − (−y)·0 is +0.
package fft

// Transform performs an in-place complex FFT of a, whose length must be a
// power of two. The forward transform (inverse == false) computes
// X_k = Σ_j x_j e^{−2πi jk/n}; the inverse includes the 1/n normalization,
// so Transform(Transform(x, false), true) == x up to rounding.
//
//parlint:hotalloc
func Transform(a []complex128, inverse bool) {
	if len(a) == 0 {
		return
	}
	transformWith(planFor(len(a)), a, inverse)
}

// transformWith transforms each of the len(a)/p.n contiguous lines of a —
// Transform with the size's plan already resolved. After every line's
// bit-reversal swaps, each memory pass runs stages s and s+1 (pass2x2) over
// all the lines at once: a stage's blocks never straddle two lines, so the
// lines' butterflies are those of one line after another, and every pass has
// a long loop per twiddle. When log₂n is odd one radix-2 stage remains and
// runs last. An inverse multiplies by 1/n in the last pass's store, or on its
// own when n = 1 leaves no pass.
//
//parlint:hotalloc
func transformWith(p *plan, a []complex128, inverse bool) {
	n := p.n
	for line := a; len(line) >= n; line = line[n:] {
		for sw := p.swaps; len(sw) >= 2; sw = sw[2:] {
			i, j := sw[0], sw[1]
			line[i], line[j] = line[j], line[i]
		}
	}
	tabs, inv := p.fwd, complex(1/float64(n), 0)
	if inverse {
		tabs = p.inv
	}
	stages := len(tabs)
	if stages == 0 && inverse {
		for i := range a {
			a[i] *= inv
		}
	}
	s := 0
	for ; s+2 <= stages; s += 2 {
		h := 1 << s
		w1, w2, w3 := tabs[s][:h], tabs[s+1][:h], tabs[s+1][h:2*h]
		if inverse && s+2 == stages {
			pass2x2Scaled(a, h, w1, w2, w3, inv)
		} else {
			pass2x2(a, h, w1, w2, w3)
		}
	}
	if s < stages { // the last stage: per line, one block of n/2 butterflies
		tw := tabs[s][:n/2]
		for line := a; len(line) >= n; line = line[n:] {
			lo, hi := line[:n/2], line[n/2:n]
			for k := range lo {
				u, v := lo[k], hi[k]*tw[k]
				z0, z1 := u+v, u-v
				if inverse {
					z0, z1 = z0*inv, z1*inv
				}
				lo[k], hi[k] = z0, z1
			}
		}
	}
}

// pass2x2 runs radix-2 stages s and s+1, where h = 2^s, on every element
// quadruple k, k+h, k+2h, k+3h of every block of 4h in a: stage s pairs
// (k, k+h) and (k+2h, k+3h) under w1[k], stage s+1 pairs (k, k+2h) under
// w2[k] and (k+h, k+3h) under w3[k]. Each load comes just before its first
// use: with all four loads first the compiler spills.
//
//parlint:hotalloc
func pass2x2(a []complex128, h int, w1, w2, w3 []complex128) {
	for k := range w1 {
		t1, t2, t3 := w1[k], w2[k], w3[k]
		for i := k; i+3*h < len(a); i += 4 * h {
			q := a[i : i+3*h+1]
			x0 := q[0]
			v1 := q[h] * t1
			y0, y1 := x0+v1, x0-v1
			x2 := q[2*h]
			v3 := q[3*h] * t1
			y2, y3 := x2+v3, x2-v3
			v2 := y2 * t2
			q[0], q[2*h] = y0+v2, y0-v2
			v3 = y3 * t3
			q[h], q[3*h] = y1+v3, y1-v3
		}
	}
}

// pass2x2Scaled is pass2x2 with every result multiplied by inv before it is
// stored: an inverse's last pass, with the 1/n folded in. A flag instead of
// this copy would put a branch in the loop body, and the compiler spills.
//
//parlint:hotalloc
func pass2x2Scaled(a []complex128, h int, w1, w2, w3 []complex128, inv complex128) {
	for k := range w1 {
		t1, t2, t3 := w1[k], w2[k], w3[k]
		for i := k; i+3*h < len(a); i += 4 * h {
			q := a[i : i+3*h+1]
			x0 := q[0]
			v1 := q[h] * t1
			y0, y1 := x0+v1, x0-v1
			x2 := q[2*h]
			v3 := q[3*h] * t1
			y2, y3 := x2+v3, x2-v3
			v2 := y2 * t2
			q[0], q[2*h] = (y0+v2)*inv, (y0-v2)*inv
			v3 = y3 * t3
			q[h], q[3*h] = (y1+v3)*inv, (y1-v3)*inv
		}
	}
}

// transformPanel transforms every column of a row-major panel in place: a
// holds p.n rows of rowLen contiguous elements, and column c is the strided
// line a[c], a[rowLen+c], … It runs transformWith's passes across all
// columns at once — the same row swaps, then per stage pair and per group
// of four rows one unit-stride loop over the columns that loads the four
// rows, runs pass2x2's four butterflies with the twiddles in registers and
// stores the rows once, and when log₂n is odd one radix-2 stage last — with
// an inverse's 1/n folded into the last store. Every column ends bit for bit
// what transformWith gives it.
//
//parlint:hotalloc
func transformPanel(p *plan, a []complex128, rowLen int, inverse bool) {
	n := p.n
	a = a[:n*rowLen]
	for sw := p.swaps; len(sw) >= 2; sw = sw[2:] {
		ri, rj := a[int(sw[0])*rowLen:][:rowLen], a[int(sw[1])*rowLen:][:rowLen]
		for c := range ri {
			ri[c], rj[c] = rj[c], ri[c]
		}
	}
	tabs, inv := p.fwd, complex(1/float64(n), 0)
	if inverse {
		tabs = p.inv
	}
	stages := len(tabs)
	if stages == 0 && inverse {
		for c := range a {
			a[c] *= inv
		}
	}
	s := 0
	for ; s+2 <= stages; s += 2 {
		h := 1 << s
		fold := inverse && s+2 == stages
		for start := 0; start < n; start += 4 * h {
			for k := 0; k < h; k++ {
				w1, w2, w3 := tabs[s][k], tabs[s+1][k], tabs[s+1][k+h]
				r0 := a[(start+k)*rowLen:][:rowLen]
				r1 := a[(start+k+h)*rowLen:][:rowLen]
				r2 := a[(start+k+2*h)*rowLen:][:rowLen]
				r3 := a[(start+k+3*h)*rowLen:][:rowLen]
				if fold {
					for c := range r0 {
						x0 := r0[c]
						v1 := r1[c] * w1
						y0, y1 := x0+v1, x0-v1
						x2 := r2[c]
						v3 := r3[c] * w1
						y2, y3 := x2+v3, x2-v3
						v2 := y2 * w2
						r0[c], r2[c] = (y0+v2)*inv, (y0-v2)*inv
						v3 = y3 * w3
						r1[c], r3[c] = (y1+v3)*inv, (y1-v3)*inv
					}
					continue
				}
				for c := range r0 {
					x0 := r0[c]
					v1 := r1[c] * w1
					y0, y1 := x0+v1, x0-v1
					x2 := r2[c]
					v3 := r3[c] * w1
					y2, y3 := x2+v3, x2-v3
					v2 := y2 * w2
					r0[c], r2[c] = y0+v2, y0-v2
					v3 = y3 * w3
					r1[c], r3[c] = y1+v3, y1-v3
				}
			}
		}
	}
	if s < stages { // the last stage: rows k and k + n/2 under tw[k]
		for k := 0; k < n/2; k++ {
			wk := tabs[s][k]
			lo, hi := a[k*rowLen:][:rowLen], a[(k+n/2)*rowLen:][:rowLen]
			for c := range lo {
				u, v := lo[c], hi[c]*wk
				z0, z1 := u+v, u-v
				if inverse {
					z0, z1 = z0*inv, z1*inv
				}
				lo[c], hi[c] = z0, z1
			}
		}
	}
}

// Transform3D performs an in-place 3D FFT on a flat row-major array with
// index (x*ny + y)*nz + z. All dimensions must be powers of two.
//
//parlint:hotalloc
func Transform3D(a []complex128, nx, ny, nz int, inverse bool) {
	if len(a) != nx*ny*nz {
		panic("fft: array length does not match dimensions")
	}
	if len(a) == 0 {
		return
	}
	// Along z: every x-plane is ny contiguous lines.
	pz := planFor(nz)
	for x := 0; x < nx; x++ {
		transformWith(pz, a[x*ny*nz:(x+1)*ny*nz], inverse)
	}
	// Along y: every x-plane is a panel of ny rows of nz columns.
	py := planFor(ny)
	for x := 0; x < nx; x++ {
		transformPanel(py, a[x*ny*nz:(x+1)*ny*nz], nz, inverse)
	}
	// Along x: the whole array is one panel of nx rows of ny*nz columns.
	transformPanel(planFor(nx), a, ny*nz, inverse)
}
