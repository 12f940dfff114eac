// Package fmm implements a parallel Fast Multipole Method solver in the
// style of the ScaFaCoS FMM (paper §II-B): the system box is subdivided
// into a uniform octree whose boxes are numbered along a Z-morton curve,
// particles are placed into leaf boxes by parallel sorting, far-field
// interactions are evaluated through multipole and local expansions, and
// the near field by direct summation over neighbor boxes.
//
// The expansions are Cartesian Taylor expansions of the 1/r kernel:
//
//	multipole moments   M_α = Σ_j q_j (−d_j)^α / α!      (d_j = y_j − c)
//	far potential       φ(x) = Σ_α M_α (∂^α 1/r)(x − c)
//	local expansion     φ(x) = Σ_γ L_γ (x − z)^γ
//
// with multi-indices α and truncation |α| + |γ| ≤ P. The derivative tensors
// of 1/r are generated by a recurrence obtained from differentiating the
// identity r²·∂_i(1/r) + x_i·(1/r) = 0.
package fmm

import "math"

// multiIndex is a 3D multi-index (exponents per dimension).
type multiIndex [3]int

// degree returns |α|.
func (m multiIndex) degree() int { return m[0] + m[1] + m[2] }

// Tables holds the precomputed combinatorics of order-P Cartesian
// expansions: the multi-index enumeration, factorials, and the dense
// index/weight tables the translation operators run on (DESIGN.md §9).
// Tables are immutable after construction and safe for concurrent use.
type Tables struct {
	p    int          // expansion order
	list []multiIndex // all |α| ≤ p, sorted by degree then lexicographic

	// The operator tables. NewTables resolves multi-indices to positions in
	// list through a map it then drops; every list is in the order the
	// defining double loop over list visits its pairs, so each accumulator
	// sees its operands in that order.
	//
	// fact[i] = list[i]!. dec1[3i+j] and dec2[3i+j] are the indices of
	// list[i] − e_j and list[i] − 2e_j (−1 where an exponent would go
	// negative): the recurrence operands of Deriv and the gradient terms
	// of L2P.
	fact       []float64
	dec1, dec2 []int32
	// m2mTerms[m2mOff[a]:m2mOff[a+1]] lists, for target α = list[a], every γ ≤ α
	// as (idx(α−γ), idx(γ)); P2M and M2M divide by fact[idx(γ)].
	m2mOff   []int32
	m2mTerms []subPair
	// l2lTerms[l2lOff[d]:l2lOff[d+1]] lists, for target δ = list[d], every γ ≥ δ
	// as (idx(γ), idx(γ−δ), binom(γ, δ)).
	l2lOff   []int32
	l2lTerms []l2lEntry
	// M2L grouped by target γ = list[g]: its sources are the prefix
	// α = list[0 … n) with |α| ≤ P − |γ|, and m2l[m2lOff[g]+a] = idx(α+γ).
	// invFact[g] = 1/γ!.
	m2lOff  []int32
	m2l     []int32
	invFact []float64
}

// subPair is one (α−γ, γ) operand pair of M2M, as indices into list.
type subPair struct{ diff, g int32 }

// l2lEntry is one (γ, γ−δ) operand pair of L2L with its binomial weight.
type l2lEntry struct {
	g, diff int32
	w       float64
}

// NewTables builds the tables for expansion order p (p ≥ 0).
func NewTables(p int) *Tables {
	if p < 0 {
		panic("fmm: negative expansion order")
	}
	t := &Tables{p: p}
	index := map[multiIndex]int{}
	for d := 0; d <= p; d++ {
		for i := d; i >= 0; i-- {
			for j := d - i; j >= 0; j-- {
				k := d - i - j
				mi := multiIndex{i, j, k}
				index[mi] = len(t.list)
				t.list = append(t.list, mi)
			}
		}
	}
	// fact1[i] = i!
	fact1 := make([]float64, 2*p+2)
	fact1[0] = 1
	for i := 1; i < len(fact1); i++ {
		fact1[i] = fact1[i-1] * float64(i)
	}

	nc := len(t.list)
	t.fact = make([]float64, nc)
	t.invFact = make([]float64, nc)
	t.dec1 = make([]int32, 3*nc)
	t.dec2 = make([]int32, 3*nc)
	t.m2mOff = make([]int32, nc+1)
	t.l2lOff = make([]int32, nc+1)
	t.m2lOff = make([]int32, nc+1)
	// idx is index with −1 for multi-indices that have a negative exponent.
	idx := func(m multiIndex) int32 {
		if m[0] < 0 || m[1] < 0 || m[2] < 0 {
			return -1
		}
		return int32(index[m])
	}
	for ai, a := range t.list {
		t.fact[ai] = fact1[a[0]] * fact1[a[1]] * fact1[a[2]]
		t.invFact[ai] = 1 / t.fact[ai]
		for j := 0; j < 3; j++ {
			m := a
			m[j]--
			t.dec1[3*ai+j] = idx(m)
			m[j]--
			t.dec2[3*ai+j] = idx(m)
		}
		for gi, g := range t.list {
			if g[0] <= a[0] && g[1] <= a[1] && g[2] <= a[2] {
				diff := multiIndex{a[0] - g[0], a[1] - g[1], a[2] - g[2]}
				t.m2mTerms = append(t.m2mTerms, subPair{diff: idx(diff), g: int32(gi)})
			}
			if g[0] >= a[0] && g[1] >= a[1] && g[2] >= a[2] {
				diff := multiIndex{g[0] - a[0], g[1] - a[1], g[2] - a[2]}
				w := binom(g[0], a[0]) * binom(g[1], a[1]) * binom(g[2], a[2])
				t.l2lTerms = append(t.l2lTerms, l2lEntry{g: int32(gi), diff: idx(diff), w: w})
			}
			if a.degree()+g.degree() <= p {
				// Here a is the target γ and g the source α.
				t.m2l = append(t.m2l, idx(multiIndex{a[0] + g[0], a[1] + g[1], a[2] + g[2]}))
			}
		}
		t.m2mOff[ai+1] = int32(len(t.m2mTerms))
		t.l2lOff[ai+1] = int32(len(t.l2lTerms))
		t.m2lOff[ai+1] = int32(len(t.m2l))
	}
	return t
}

// NCoef returns the number of expansion coefficients (indices with
// |α| ≤ P).
func (t *Tables) NCoef() int { return len(t.list) }

// stackCoef is NCoef at order 8, the largest order orderFor selects: up to
// it the operators' power table lives in the caller's frame.
const stackCoef = 165

// powers returns v^list[i] (componentwise power product) for all indices,
// in buf when NCoef fits its length.
func (t *Tables) powers(vx, vy, vz float64, buf []float64) []float64 {
	nc := t.NCoef()
	if nc > len(buf) {
		buf = make([]float64, nc)
	}
	out := buf[:nc]
	// pw[d][e] = v_d^e; the backing arrays stay on the stack for the
	// practical expansion orders.
	var pbuf [3][16]float64
	var pw [3][]float64
	for d := 0; d < 3; d++ {
		if t.p+1 <= len(pbuf[d]) {
			pw[d] = pbuf[d][:t.p+1]
		} else {
			pw[d] = make([]float64, t.p+1)
		}
		pw[d][0] = 1
	}
	for e := 1; e <= t.p; e++ {
		pw[0][e] = pw[0][e-1] * vx
		pw[1][e] = pw[1][e-1] * vy
		pw[2][e] = pw[2][e-1] * vz
	}
	for i, m := range t.list {
		out[i] = pw[0][m[0]] * pw[1][m[1]] * pw[2][m[2]]
	}
	return out
}

// p2m accumulates the moment contribution of a charge q at displacement d
// from the box center into M (length NCoef): M_α += q (−d)^α / α!.
//
//parlint:hotalloc
func (t *Tables) p2m(q, dx, dy, dz float64, M []float64) {
	var buf [stackCoef]float64
	pw := t.powers(-dx, -dy, -dz, buf[:])
	for i, f := range t.fact {
		M[i] += q * pw[i] / f
	}
}

// m2m translates child moments Mc (center c') into the parent accumulator
// Mp (center c), with t3 = c' − c: M_α += Σ_{β≤α} Mc_β (−t3)^{α−β}/(α−β)!.
//
//parlint:hotalloc
func (t *Tables) m2m(Mc []float64, tx, ty, tz float64, Mp []float64) {
	var buf [stackCoef]float64
	pw := t.powers(-tx, -ty, -tz, buf[:])
	for ai := range Mp[:t.NCoef()] {
		sum := 0.0
		for _, e := range t.m2mTerms[t.m2mOff[ai]:t.m2mOff[ai+1]] {
			sum += Mc[e.diff] * pw[e.g] / t.fact[e.g]
		}
		Mp[ai] += sum
	}
}

// Deriv fills b[i] = (∂^list[i] 1/r)(x) for all |β| ≤ P, by the recurrence
//
//	b_β = −(1/r²)[ 2 Σ_j a_j x_j b_{β−e_j} + Σ_j a_j(a_j−1) b_{β−2e_j}
//	              + x_i b_{β−e_i} + a_i b_{β−2e_i} ],  a = β − e_i,
//
// where i is the first dimension with β_i > 0. b must have length NCoef.
//
//parlint:hotalloc
func (t *Tables) Deriv(x, y, z float64, b []float64) {
	r2 := x*x + y*y + z*z
	if r2 == 0 {
		panic("fmm: derivative tensor at zero displacement")
	}
	inv2 := 1 / r2
	pos := [3]float64{x, y, z}
	b[0] = 1 / math.Sqrt(r2)
	for bi := 1; bi < t.NCoef(); bi++ {
		d1, d2 := t.dec1[3*bi:3*bi+3], t.dec2[3*bi:3*bi+3]
		a := t.list[bi]
		i := 0
		for a[i] == 0 {
			i++
		}
		a[i]--
		sum := pos[i] * b[d1[i]]
		if a[i] >= 1 {
			sum += float64(a[i]) * b[d2[i]]
		}
		for j := 0; j < 3; j++ {
			aj := float64(a[j])
			if a[j] > 0 {
				sum += 2 * aj * pos[j] * b[d1[j]]
				if a[j] > 1 {
					sum += aj * (aj - 1) * b[d2[j]]
				}
			}
		}
		b[bi] = -inv2 * sum
	}
}

// M2L converts moments M of a source box into the local expansion L of a
// target box, with b the derivative tensor evaluated at (target center −
// source center): L_γ += (1/γ!) Σ_α M_α b_{α+γ}. Each L_γ accumulates its
// terms one at a time in ascending α, so L must not alias M or b.
//
//parlint:hotalloc
func (t *Tables) M2L(M, b, L []float64) {
	for g, w := range t.invFact {
		sums := t.m2l[t.m2lOff[g]:t.m2lOff[g+1]]
		src := M[:len(sums)]
		acc := L[g]
		for a, s := range sums {
			acc += w * src[a] * b[s]
		}
		L[g] = acc
	}
}

// m2l4 is four M2Ls that share one derivative tensor b: L_i += M2L(M_i, b)
// for i = 0 … 3. Per γ it loads the weight, the index and b[idx(α+γ)] once
// and feeds four accumulators, each summing exactly M2L's terms in M2L's
// order, so every L_i ends bit-identical to a separate M2L(M_i, b, L_i).
// The γ rows whose weight 1/γ! is 1 (every component ≤ 1) run in
// m2l4Row1, which drops the multiply by it: 1·x is x in every bit, NaN
// payloads, infinities, signed zeros and subnormals included. No L_i may
// alias any M_j, b or another L_j; the M_i may alias each other.
//
//parlint:hotalloc
func (t *Tables) m2l4(b, M0, M1, M2, M3, L0, L1, L2, L3 []float64) {
	Ms := [4][]float64{M0, M1, M2, M3}
	for g, w := range t.invFact {
		sums := t.m2l[t.m2lOff[g]:t.m2lOff[g+1]]
		if w == 1 {
			L0[g], L1[g], L2[g], L3[g] = m2l4Row1(sums, b, &Ms, L0[g], L1[g], L2[g], L3[g])
		} else {
			L0[g], L1[g], L2[g], L3[g] = m2l4Row(sums, b, w, &Ms, L0[g], L1[g], L2[g], L3[g])
		}
	}
}

// m2l4Row is one γ of m2l4: it returns a_i + Σ_a w·Ms[i][a]·b[sums[a]] for
// i = 0 … 3, each sum in ascending a. It stays a call of its own: inlined
// into m2l4's γ loop, the live slices spill and the inner loop reloads them
// from the stack on every term. The sources come behind one pointer so
// that the call's integer arguments fit in registers.
//
//go:noinline
//parlint:hotalloc
func m2l4Row(sums []int32, b []float64, w float64, Ms *[4][]float64, a0, a1, a2, a3 float64) (float64, float64, float64, float64) {
	n := len(sums)
	m0, m1, m2, m3 := Ms[0][:n], Ms[1][:n], Ms[2][:n], Ms[3][:n]
	for a, s := range sums {
		bs := b[s]
		a0 += w * m0[a] * bs
		a1 += w * m1[a] * bs
		a2 += w * m2[a] * bs
		a3 += w * m3[a] * bs
	}
	return a0, a1, a2, a3
}

// m2l4Row1 is m2l4Row for a row of weight 1: it returns
// a_i + Σ_a Ms[i][a]·b[sums[a]].
//
//go:noinline
//parlint:hotalloc
func m2l4Row1(sums []int32, b []float64, Ms *[4][]float64, a0, a1, a2, a3 float64) (float64, float64, float64, float64) {
	n := len(sums)
	m0, m1, m2, m3 := Ms[0][:n], Ms[1][:n], Ms[2][:n], Ms[3][:n]
	for a, s := range sums {
		bs := b[s]
		a0 += m0[a] * bs
		a1 += m1[a] * bs
		a2 += m2[a] * bs
		a3 += m3[a] * bs
	}
	return a0, a1, a2, a3
}

// m2lOps returns the number of fused multiply-adds of one M2L.
func (t *Tables) m2lOps() int { return len(t.m2l) }

// l2l translates the parent local expansion Lp (center z) into the child
// accumulator Lc (center z'), with s = z' − z:
// Lc_δ += Σ_{γ≥δ} binom(γ,δ) Lp_γ s^{γ−δ}.
//
//parlint:hotalloc
func (t *Tables) l2l(Lp []float64, sx, sy, sz float64, Lc []float64) {
	var buf [stackCoef]float64
	pw := t.powers(sx, sy, sz, buf[:])
	for di := range Lc[:t.NCoef()] {
		sum := 0.0
		for _, e := range t.l2lTerms[t.l2lOff[di]:t.l2lOff[di+1]] {
			sum += e.w * Lp[e.g] * pw[e.diff]
		}
		Lc[di] += sum
	}
}

// l2p evaluates the local expansion at displacement d from its center and
// returns the potential and field (E = −∇φ) contributions.
//
//parlint:hotalloc
func (t *Tables) l2p(L []float64, dx, dy, dz float64) (pot, ex, ey, ez float64) {
	var buf [stackCoef]float64
	pw := t.powers(dx, dy, dz, buf[:])
	for gi, g := range t.list {
		pot += L[gi] * pw[gi]
		// ∂φ/∂x_d = Σ L_γ γ_d d^(γ−e_d)
		dec := t.dec1[3*gi : 3*gi+3]
		if g[0] > 0 {
			ex -= L[gi] * float64(g[0]) * pw[dec[0]]
		}
		if g[1] > 0 {
			ey -= L[gi] * float64(g[1]) * pw[dec[1]]
		}
		if g[2] > 0 {
			ez -= L[gi] * float64(g[2]) * pw[dec[2]]
		}
	}
	return pot, ex, ey, ez
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}
