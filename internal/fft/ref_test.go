package fft

import "math/bits"

// refTransformWith and refTransformPanel are the one-stage-per-pass kernels
// that transformWith and transformPanel replaced, kept verbatim as the
// bit-identity oracle of the fused-pass kernels: perCallPass and checkPanel
// drive them, and FuzzTransformMatchesReference and FuzzPanelMatchesPerCall
// compare the new kernels against them bit for bit, except that there a NaN
// matches any NaN (requireSameBitsOrNaN).

// refTransformWith is the reference transform of one contiguous line:
// bit-reversal swaps, then one memory pass per radix-2 stage, then a
// separate pass for the inverse's 1/n.
func refTransformWith(p *plan, a []complex128, inverse bool) {
	n := p.n
	for i := 0; i < n; i++ {
		j := bitReverse(i, n)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	tabs := p.fwd
	if inverse {
		tabs = p.inv
	}
	for s, size := 0, 2; size <= n; s, size = s+1, size<<1 {
		tw := tabs[s]
		half := size / 2
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * tw[k]
				a[start+k] = u + v
				a[start+k+half] = u - v
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

// refTransformPanel is refTransformWith run across every column of a
// row-major panel of p.n rows of rowLen elements, stage by stage.
func refTransformPanel(p *plan, a []complex128, rowLen int, inverse bool) {
	n := p.n
	for i := 0; i < n; i++ {
		if j := bitReverse(i, n); i < j {
			ri, rj := a[i*rowLen:][:rowLen], a[j*rowLen:][:rowLen]
			for c := range ri {
				ri[c], rj[c] = rj[c], ri[c]
			}
		}
	}
	tabs := p.fwd
	if inverse {
		tabs = p.inv
	}
	for s, size := 0, 2; size <= n; s, size = s+1, size<<1 {
		tw := tabs[s]
		half := size / 2
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				wk := tw[k]
				lo, hi := a[(start+k)*rowLen:][:rowLen], a[(start+k+half)*rowLen:][:rowLen]
				for c := range lo {
					u := lo[c]
					v := hi[c] * wk
					lo[c] = u + v
					hi[c] = u - v
				}
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range a[:n*rowLen] {
			a[i] *= inv
		}
	}
}

// bitReverse is i with its log₂n low bits in reverse order: the reference
// kernels' permutation, computed independently of the plan's swap list.
func bitReverse(i, n int) int {
	return int(bits.Reverse64(uint64(i)) >> (64 - uint(bits.Len(uint(n-1)))))
}
