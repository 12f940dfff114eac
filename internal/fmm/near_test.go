package fmm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/particle"
	"repro/internal/zorder"
)

// ghostedEngine is sortedEngine plus, as ghosts, the particles outside
// [lo, hi) that lie in a neighbor box of an owned leaf: what the parallel
// solver's ghost exchange delivers to the rank owning [lo, hi).
func ghostedEngine(s *particle.System, p, level, lo, hi int) *engine {
	e := sortedEngine(s, p, level, lo, hi)
	ord, keys := keyOrder(s, level)
	near := map[uint64]bool{}
	for _, lr := range e.leaves {
		for _, k := range zorder.Neighbors3(lr.key, level, e.Periodic) {
			near[k] = true
		}
	}
	var gpos, gq []float64
	for r, in := range ord {
		if (r < lo || r >= hi) && near[keys[in]] {
			gpos = append(gpos, s.Pos[3*in:3*in+3]...)
			gq = append(gq, s.Q[in])
		}
	}
	e.addGhosts(gpos, gq)
	return e
}

// nearSystem returns n particles in a cube of side 10 at offset −5 whose
// coordinates stress the near-field image shift:
//
//   - "melt": a silica melt;
//   - "unwrapped": uniform, with about one coordinate in six moved by one
//     or two box lengths, to at most 1.5 box lengths outside the box;
//   - "faces": every coordinate on a level-4 cell face (level-2 and -3
//     faces among them), at ±0, at ±the least subnormal, or uniform, and
//     every fifth particle coincident with the one before;
//   - "plane": x is +0, or −0 for every thirteenth particle, and every
//     charge is positive, so every x displacement is a signed zero and so
//     is every x field contribution;
//   - "nonfinite": uniform, with one coordinate +Inf and one NaN.
func nearSystem(kind string, n int, periodic bool, seed int64) *particle.System {
	const side = 10.0
	box := particle.NewCubicBox(side, periodic)
	box.Offset = [3]float64{-side / 2, -side / 2, -side / 2}
	s := particle.NewSystem(box, n)
	rng := rand.New(rand.NewSource(seed))
	uniform := func() float64 { return -side/2 + side*rng.Float64() }
	for i := 0; i < n; i++ {
		s.Q[i] = rng.NormFloat64()
		for d := 0; d < 3; d++ {
			s.Pos[3*i+d] = uniform()
		}
	}
	switch kind {
	case "melt":
		m := particle.SilicaMelt(n, side, periodic, seed)
		copy(s.Q, m.Q)
		for i, x := range m.Pos {
			s.Pos[i] = x - side/2
		}
	case "unwrapped":
		for i, x := range s.Pos {
			if rng.Intn(6) != 0 {
				continue
			}
			m := float64([]int{-2, -1, 1, 2}[rng.Intn(4)])
			if y := x + m*side; y < -2*side || y >= 3*side {
				m /= 2 // keep within 1.5 box lengths of the box
			}
			s.Pos[i] = x + m*side
		}
	case "faces":
		for i := range s.Pos {
			switch rng.Intn(5) {
			case 0, 1:
				s.Pos[i] = -side/2 + float64(rng.Intn(17))*side/16
			case 2:
				s.Pos[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			case 3:
				s.Pos[i] = float64(rng.Intn(2)*2-1) * math.SmallestNonzeroFloat64
			}
		}
		for i := 5; i < n; i += 5 {
			copy(s.Pos[3*i:3*i+3], s.Pos[3*i-3:3*i])
		}
	case "plane":
		for i := 0; i < n; i++ {
			s.Pos[3*i] = 0
			if i%13 == 0 {
				s.Pos[3*i] = math.Copysign(0, -1)
			}
			s.Q[i] = 1 + rng.Float64()
		}
	case "nonfinite":
		s.Pos[3*(n/2)+1] = math.Inf(1)
		s.Pos[3*(n/3)+2] = math.NaN()
	}
	return s
}

// nearPaths counts the (leaf, source) ranges of e's near-field gather that
// take the hoisted image shift and the per-pair minimum image.
func nearPaths(e *engine) (shifted, perPair int) {
	nb := newNearBounds(e)
	var ns nearScratch
	for li := range e.leaves {
		for _, s := range e.nearSources(li, &nb, &ns) {
			if s.perPair {
				perPair++
			} else {
				shifted++
			}
		}
	}
	return shifted, perPair
}

// TestNearFieldMatchesPerPair runs the near field with the image shift
// hoisted per (leaf, source) range and the per-pair sweep it replaced
// (refEvalNearField) on the same engine and demands bit-identical pot,
// field and CostSeconds, at GOMAXPROCS 1 and 4. Accumulators start at −0,
// so a signed zero the hoisted path got wrong would show. Only the
// "nonfinite" case makes NaNs, which compare equal whatever their payload:
// where two NaNs meet in an addition, the payload follows the operand order
// the compiler picks, and that differs between builds (-race). The engines own
// the whole key range or a third of it with the rest of their neighborhood
// as ghosts (a leaf split with the ghosts included).
func TestNearFieldMatchesPerPair(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	negZeros := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Copysign(0, -1)
		}
		return v
	}
	for ki, kind := range []string{"melt", "unwrapped", "faces", "plane", "nonfinite"} {
		for _, periodic := range []bool{true, false} {
			for level := 2; level <= 4; level++ {
				var shifted, perPair int
				for _, part := range []bool{false, true} {
					name := fmt.Sprintf("%s/periodic=%v/level=%d/part=%v", kind, periodic, level, part)
					s := nearSystem(kind, 600, periodic, int64(10*ki+level))
					lo, hi := 0, s.N
					if part {
						lo, hi = s.N/3, 2*s.N/3+1
					}
					e := ghostedEngine(s, 2, level, lo, hi)
					if part && len(e.gq) == 0 {
						t.Fatalf("%s: no ghosts", name)
					}
					sh, pp := nearPaths(e)
					shifted, perPair = shifted+sh, perPair+pp
					n := len(e.q)
					wantPot, wantField := negZeros(n), negZeros(3*n)
					cost0 := e.CostSeconds
					refEvalNearField(e, wantPot, wantField)
					wantCost := e.CostSeconds
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						pot, field := negZeros(n), negZeros(3*n)
						e.CostSeconds = cost0
						e.evalNearField(pot, field)
						if math.Float64bits(e.CostSeconds) != math.Float64bits(wantCost) {
							t.Fatalf("%s GOMAXPROCS=%d: CostSeconds %g, per-pair %g", name, procs, e.CostSeconds, wantCost)
						}
						for i := range wantField {
							if i < n && !sameBits(pot[i], wantPot[i]) {
								t.Fatalf("%s GOMAXPROCS=%d: pot[%d] %x (%g), per-pair %x (%g)", name, procs, i,
									math.Float64bits(pot[i]), pot[i], math.Float64bits(wantPot[i]), wantPot[i])
							}
							if !sameBits(field[i], wantField[i]) {
								t.Fatalf("%s GOMAXPROCS=%d: field[%d] %x (%g), per-pair %x (%g)", name, procs, i,
									math.Float64bits(field[i]), field[i], math.Float64bits(wantField[i]), wantField[i])
							}
						}
					}
				}
				t.Logf("%s/periodic=%v/level=%d: %d source ranges shifted, %d per pair", kind, periodic, level, shifted, perPair)
				switch {
				case !periodic && shifted != 0:
					t.Errorf("%s/level=%d: an open box shifted %d ranges", kind, level, shifted)
				case periodic && shifted == 0:
					t.Errorf("%s/level=%d: no range took the image shift", kind, level)
				case periodic && perPair == 0 && (kind == "unwrapped" || kind == "nonfinite" || kind == "faces" && level == 2):
					t.Errorf("%s/level=%d: no range took the per-pair fallback", kind, level)
				}
			}
		}
	}
}
