package pnfft

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/api"
	"repro/internal/hostpar"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

// refAssignCharges is the charge assignment as it stood before the sparse
// tile partials, verbatim except that it owns its blocks: every tile gets a
// dense block cleared before its deposits, and the partials are reduced cell
// by cell over the whole block in tile index order. It is the bit-identity
// oracle for assignCharges.
func refAssignCharges(s *Solver, own []pRec, h float64) []float64 {
	fp := s.far
	lo := fp.lo
	bx, by, bz := fp.bx, fp.by, fp.bz
	block := make([]float64, bx*by*bz)
	zeroF(block)
	nTiles := hostpar.Tiles(len(own), asgGrain)
	tileBlocks := make([][]float64, nTiles)
	hostpar.ForTiles(len(own), asgGrain, func(t, plo, phi int) {
		tb := block
		if nTiles > 1 {
			tb = growF(tileBlocks[t], bx*by*bz)
			tileBlocks[t] = tb
			zeroF(tb)
		}
		var w [3][3]float64 // splineWeights supports orders up to 3
		var base [3]int
		for pi := plo; pi < phi; pi++ {
			r := own[pi]
			u := [3]float64{(r.X - s.box.Offset[0]) * h, (r.Y - s.box.Offset[1]) * h, (r.Z - s.box.Offset[2]) * h}
			for d := 0; d < 3; d++ {
				base[d] = splineWeights(s.Order, u[d], w[d][:])
			}
			for ix := 0; ix < s.Order; ix++ {
				for iy := 0; iy < s.Order; iy++ {
					for iz := 0; iz < s.Order; iz++ {
						gx, gy, gz := base[0]+ix-lo[0], base[1]+iy-lo[1], base[2]+iz-lo[2]
						if gx < 0 || gx >= bx || gy < 0 || gy >= by || gz < 0 || gz >= bz {
							panic(fmt.Sprintf("pnfft: assignment outside grown block (particle %d)", pi))
						}
						tb[(gx*by+gy)*bz+gz] += r.Q * w[0][ix] * w[1][iy] * w[2][iz]
					}
				}
			}
		}
	})
	if nTiles > 1 {
		for _, tb := range tileBlocks[:nTiles] {
			for k, v := range tb {
				block[k] += v
			}
		}
	}
	return block
}

// meshSolver returns a tuned solver with its far-field plan built, as
// farField finds it. Collective (Tune reduces the particle count).
func meshSolver(c *vmpi.Comm, order, perRank int) *Solver {
	s := New(c, particle.NewCubicBox(10, true), 1e-3)
	s.SetAssignmentOrder(order)
	if err := s.Tune(api.Input{N: perRank}); err != nil {
		panic(err)
	}
	s.far = s.buildFarPlan()
	return s
}

// clusteredOwn places n particles of the calling rank's subdomain in
// clusters about one mesh cell wide (clusters = n spreads them uniformly).
// Consecutive particles cycle through the clusters, so with a few clusters
// every 64-particle tile deposits into every cluster's cells: many particles
// of different tiles share cells. Two exact cancellations are planted —
// inside tile 0 and between tiles 0 and 1 — so zero tile partials and zero
// block sums over touched cells occur.
func clusteredOwn(s *Solver, rng *rand.Rand, n, clusters int) []pRec {
	lo, hi := s.subBounds()
	centers := make([][3]float64, clusters)
	for k := range centers {
		for d := 0; d < 3; d++ {
			centers[k][d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
		}
	}
	own := make([]pRec, n)
	for i := range own {
		own[i] = pRec{X: centers[i%clusters][0], Y: centers[i%clusters][1], Z: centers[i%clusters][2], Q: rng.NormFloat64()}
	}
	jiggle(s, rng, own)
	own[1] = own[0]
	own[1].Q = -own[0].Q
	if n > asgGrain {
		own[asgGrain] = own[2]
		own[asgGrain].Q = -own[2].Q
	}
	return own
}

// jiggle moves every particle by up to half a mesh cell per dimension,
// keeping it inside the rank's subdomain.
func jiggle(s *Solver, rng *rand.Rand, own []pRec) {
	lo, hi := s.subBounds()
	cell := s.box.Lengths()[0] / float64(s.Mesh)
	for i := range own {
		x := [3]*float64{&own[i].X, &own[i].Y, &own[i].Z}
		for d := 0; d < 3; d++ {
			*x[d] = math.Min(math.Max(*x[d]+(rng.Float64()-0.5)*cell, lo[d]), math.Nextafter(hi[d], lo[d]))
		}
	}
}

func blockBits(block []float64) []uint64 {
	bits := make([]uint64, len(block))
	for i, v := range block {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestChargeAssignmentMatchesDenseReference compares the grown block of
// assignCharges with the dense per-tile reduce bit for bit: spline orders 2
// and 3; 1, 2 and 8 ranks; clustered particles; two consecutive solves with
// the particles moved in between (a scratch cell left dirty by the first
// would corrupt the second — the pooled blocks must come back all-zero);
// GOMAXPROCS 1 and 4, which must also agree with each other.
func TestChargeAssignmentMatchesDenseReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const perRank = 5*asgGrain + 17
	serial := map[string][]uint64{}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, order := range []int{2, 3} {
			for _, ranks := range []int{1, 2, 8} {
				st := vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
					s := meshSolver(c, order, perRank)
					h := float64(s.Mesh) / s.box.Lengths()[0]
					rng := rand.New(rand.NewSource(int64(100*order + c.Rank())))
					own := clusteredOwn(s, rng, perRank, 5)
					var got [2][]uint64
					for step := range got {
						got[step] = blockBits(s.assignCharges(own, h))
						want := blockBits(refAssignCharges(s, own, h))
						for k := range want {
							if got[step][k] != want[k] {
								t.Errorf("GOMAXPROCS %d order %d ranks %d rank %d solve %d: cell %d is %x, dense reference %x",
									procs, order, ranks, c.Rank(), step, k, got[step][k], want[k])
								break
							}
						}
						jiggle(s, rng, own)
					}
					c.SetResult(got)
				})
				for r, v := range st.Values {
					for step, bits := range v.([2][]uint64) {
						key := fmt.Sprintf("order %d ranks %d rank %d solve %d", order, ranks, r, step)
						if procs == 1 {
							serial[key] = bits
							continue
						}
						for k := range bits {
							if bits[k] != serial[key][k] {
								t.Errorf("%s: cell %d differs between GOMAXPROCS 1 and %d", key, k, procs)
								break
							}
						}
					}
				}
			}
		}
	}
	// Whatever scratch the pool still holds must be all-zero.
	for i := 0; i < 8; i++ {
		for k, v := range *zeroBlocks.Get().(*[]float64) {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("pooled scratch block holds %v at cell %d", v, k)
			}
		}
	}
}

// TestFarFieldBalancesPool pins the buffer lifecycle of the two mesh
// all-to-alls (and the slab transposes between them): every buffer the far
// field relinquishes was drawn from the vmpi pool and is released by its
// receiver, so one 8-rank far-field solve leaves the pool's in-use meter
// where it found it. The particle redistribution around the far field is
// left out on purpose: redist.gather still relinquishes exact-capacity makes
// (see vmpi/pool.go). Only the meter is asserted: sync.Pool may drop entries
// at any GC and under -race.
func TestFarFieldBalancesPool(t *testing.T) {
	const perRank = 3 * asgGrain
	before := vmpi.PoolStatsSnapshot()
	vmpi.Run(vmpi.Config{Ranks: 8}, func(c *vmpi.Comm) {
		s := meshSolver(c, 3, perRank)
		own := clusteredOwn(s, rand.New(rand.NewSource(int64(c.Rank()))), perRank, 5)
		s.farField(own, make([]float64, perRank), make([]float64, 3*perRank))
	})
	after := vmpi.PoolStatsSnapshot()
	if after.Gets == before.Gets {
		t.Fatal("the far field drew nothing from the pool")
	}
	if after.InUseBytes != before.InUseBytes {
		t.Fatalf("pool in-use meter moved by %d bytes across one far-field solve", after.InUseBytes-before.InUseBytes)
	}
}

// BenchmarkFarFieldP8 is one far-field solve on 8 ranks at md-pnfft's shape
// (750 uniformly spread particles per rank, order 3; Tune picks the 64³ mesh): charge
// assignment, both mesh all-to-alls and five slab transforms. B/op is what
// the per-destination message buffers and the tile scratch cost the host.
func BenchmarkFarFieldP8(b *testing.B) {
	const perRank = 750
	b.ReportAllocs()
	vmpi.Run(vmpi.Config{Ranks: 8}, func(c *vmpi.Comm) {
		s := meshSolver(c, 3, perRank)
		own := clusteredOwn(s, rand.New(rand.NewSource(int64(c.Rank()))), perRank, perRank)
		pot, field := make([]float64, perRank), make([]float64, 3*perRank)
		for i := -2; i < b.N; i++ { // two untimed solves build the plan and fill the pools
			if i == 0 && c.Rank() == 0 {
				b.ResetTimer()
			}
			s.farField(own, pot, field)
		}
	})
}
