package fmm

import (
	"fmt"
	"math"

	"repro/internal/zorder"
)

// refTables is the map-based implementation of the translation operators
// as it stood before the dense operator tables: every index is resolved
// through the Idx map inside the loops, binomials are recomputed per pair,
// and M2L walks the (α, γ) pair list α-major. The bodies are kept verbatim
// as the oracle for the table-driven kernels: same operands, same order,
// so results must agree in every bit (operators_test.go).
type refTables struct {
	P      int
	List   []MultiIndex
	Idx    map[MultiIndex]int
	Fact   []float64
	m2l    []refM2LEntry
	degOff []int
}

type refM2LEntry struct {
	a, g, s int
	w       float64 // 1/γ!
}

func newRefTables(p int) *refTables {
	t := &refTables{P: p, Idx: map[MultiIndex]int{}}
	t.degOff = make([]int, p+2)
	for d := 0; d <= p; d++ {
		t.degOff[d] = len(t.List)
		for i := d; i >= 0; i-- {
			for j := d - i; j >= 0; j-- {
				k := d - i - j
				mi := MultiIndex{i, j, k}
				t.Idx[mi] = len(t.List)
				t.List = append(t.List, mi)
			}
		}
	}
	t.degOff[p+1] = len(t.List)
	t.Fact = make([]float64, 2*p+2)
	t.Fact[0] = 1
	for i := 1; i < len(t.Fact); i++ {
		t.Fact[i] = t.Fact[i-1] * float64(i)
	}
	for ai, a := range t.List {
		for gi, g := range t.List {
			if a.Degree()+g.Degree() > p {
				continue
			}
			s := MultiIndex{a[0] + g[0], a[1] + g[1], a[2] + g[2]}
			t.m2l = append(t.m2l, refM2LEntry{
				a: ai, g: gi, s: t.Idx[s],
				w: 1 / (t.Fact[g[0]] * t.Fact[g[1]] * t.Fact[g[2]]),
			})
		}
	}
	return t
}

func (t *refTables) NCoef() int { return len(t.List) }

func (t *refTables) factMI(m MultiIndex) float64 {
	return t.Fact[m[0]] * t.Fact[m[1]] * t.Fact[m[2]]
}

func (t *refTables) powers(vx, vy, vz float64, out []float64) {
	var buf [3][16]float64
	var pw [3][]float64
	for d := 0; d < 3; d++ {
		if t.P+1 <= len(buf[d]) {
			pw[d] = buf[d][:t.P+1]
		} else {
			pw[d] = make([]float64, t.P+1)
		}
		pw[d][0] = 1
	}
	for e := 1; e <= t.P; e++ {
		pw[0][e] = pw[0][e-1] * vx
		pw[1][e] = pw[1][e-1] * vy
		pw[2][e] = pw[2][e-1] * vz
	}
	for i, m := range t.List {
		out[i] = pw[0][m[0]] * pw[1][m[1]] * pw[2][m[2]]
	}
}

func (t *refTables) P2M(q, dx, dy, dz float64, M []float64) {
	pw := make([]float64, t.NCoef())
	t.powers(-dx, -dy, -dz, pw)
	for i, m := range t.List {
		M[i] += q * pw[i] / t.factMI(m)
	}
}

func (t *refTables) M2M(Mc []float64, tx, ty, tz float64, Mp []float64) {
	pw := make([]float64, t.NCoef())
	t.powers(-tx, -ty, -tz, pw)
	for ai, a := range t.List {
		sum := 0.0
		for gi, g := range t.List {
			if g[0] > a[0] || g[1] > a[1] || g[2] > a[2] {
				continue
			}
			b := MultiIndex{a[0] - g[0], a[1] - g[1], a[2] - g[2]}
			sum += Mc[t.Idx[b]] * pw[gi] / t.factMI(g)
		}
		Mp[ai] += sum
	}
}

func (t *refTables) Deriv(x, y, z float64, b []float64) {
	r2 := x*x + y*y + z*z
	if r2 == 0 {
		panic("fmm: derivative tensor at zero displacement")
	}
	inv2 := 1 / r2
	pos := [3]float64{x, y, z}
	b[0] = 1 / math.Sqrt(r2)
	for d := 1; d <= t.P; d++ {
		for bi := t.degOff[d]; bi < t.degOff[d+1]; bi++ {
			beta := t.List[bi]
			i := 0
			for beta[i] == 0 {
				i++
			}
			a := beta
			a[i]--
			sum := pos[i] * b[t.sub(beta, i, 1)]
			if a[i] >= 1 {
				sum += float64(a[i]) * b[t.sub(beta, i, 2)]
			}
			for j := 0; j < 3; j++ {
				aj := float64(a[j])
				if a[j] > 0 {
					sum += 2 * aj * pos[j] * b[t.sub(beta, j, 1)]
					if a[j] > 1 {
						sum += aj * (aj - 1) * b[t.sub(beta, j, 2)]
					}
				}
			}
			b[bi] = -inv2 * sum
		}
	}
}

func (t *refTables) sub(beta MultiIndex, j, k int) int {
	beta[j] -= k
	if beta[j] < 0 {
		panic(fmt.Sprintf("fmm: invalid index subtraction %v", beta))
	}
	return t.Idx[beta]
}

func (t *refTables) M2L(M, b, L []float64) {
	for _, e := range t.m2l {
		L[e.g] += e.w * M[e.a] * b[e.s]
	}
}

func (t *refTables) L2L(Lp []float64, sx, sy, sz float64, Lc []float64) {
	pw := make([]float64, t.NCoef())
	t.powers(sx, sy, sz, pw)
	for di, dlt := range t.List {
		sum := 0.0
		for _, g := range t.List {
			if g[0] < dlt[0] || g[1] < dlt[1] || g[2] < dlt[2] {
				continue
			}
			diff := MultiIndex{g[0] - dlt[0], g[1] - dlt[1], g[2] - dlt[2]}
			w := refBinom(g[0], dlt[0]) * refBinom(g[1], dlt[1]) * refBinom(g[2], dlt[2])
			sum += w * Lp[t.Idx[g]] * pw[t.Idx[diff]]
		}
		Lc[di] += sum
	}
}

func (t *refTables) L2P(L []float64, dx, dy, dz float64) (pot, ex, ey, ez float64) {
	pw := make([]float64, t.NCoef())
	t.powers(dx, dy, dz, pw)
	for gi, g := range t.List {
		pot += L[gi] * pw[gi]
		if g[0] > 0 {
			ex -= L[gi] * float64(g[0]) * pw[t.Idx[MultiIndex{g[0] - 1, g[1], g[2]}]]
		}
		if g[1] > 0 {
			ey -= L[gi] * float64(g[1]) * pw[t.Idx[MultiIndex{g[0], g[1] - 1, g[2]}]]
		}
		if g[2] > 0 {
			ez -= L[gi] * float64(g[2]) * pw[t.Idx[MultiIndex{g[0], g[1], g[2] - 1}]]
		}
	}
	return pot, ex, ey, ez
}

func refBinom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// refInteractionList is the map-based interaction list: two freshly built
// sets per call. Its output order is the M2L accumulation order of
// Downward, so the map-free list must reproduce it element for element.
func refInteractionList(l int, key uint64, periodic bool) []uint64 {
	if l < 1 {
		return nil
	}
	own := map[uint64]bool{}
	for _, nb := range zorder.Neighbors3(key, l, periodic) {
		own[nb] = true
	}
	var out []uint64
	seen := map[uint64]bool{}
	for _, pn := range zorder.Neighbors3(zorder.Parent(key), l-1, periodic) {
		for c := 0; c < 8; c++ {
			ck := zorder.Child(pn, c)
			if !own[ck] && !seen[ck] {
				seen[ck] = true
				out = append(out, ck)
			}
		}
	}
	return out
}
