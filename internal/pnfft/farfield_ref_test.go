package pnfft

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/costs"
	"repro/internal/hostpar"
	"repro/internal/vmpi"
)

// refFarField is the far field as it stood with eleven mesh slabs per rank:
// steps 4–6 verbatim, except that it owns its buffers. The four component
// spectra are separate arrays, each inverse transform gets a clone of its
// spectrum (InverseInto consumes its input; the old one copied it into the
// Slab's work buffer), the returned values are scattered into a dense
// 4-per-cell array through the map-based scatter plan of refRecvPlan, and
// interpolation reads that array. It is the bit-identity oracle for
// farField's streamed tail.
func refFarField(s *Solver, own []pRec, pot, field []float64) {
	c := s.comm
	n := s.Mesh
	L := s.box.Lengths()[0]
	h := float64(n) / L // mesh points per unit length

	spec := s.chargeSpectrum(own, h)
	fp := s.far
	lo := fp.lo
	bx, by, bz := fp.bx, fp.by, fp.bz

	// 4. Influence function (from the plan's table — same values, computed
	// once per Tune instead of per step) and ik differentiation.
	phiSpec := make([]complex128, len(spec))
	exSpec := make([]complex128, len(spec))
	eySpec := make([]complex128, len(spec))
	ezSpec := make([]complex128, len(spec))
	yLo, _ := s.slab.YRange(c.Rank())
	g := 2 * math.Pi / L
	// The inverse FFT normalizes by 1/n³, but the Ewald reciprocal sum is
	// an unnormalized sum over modes; compensate here.
	scale := float64(n) * float64(n) * float64(n)
	hostpar.For(len(spec), specGrain, func(ilo, ihi int) {
		for idx := ilo; idx < ihi; idx++ {
			gInf := fp.infl[idx]
			if gInf == 0 {
				phiSpec[idx] = 0
				exSpec[idx] = 0
				eySpec[idx] = 0
				ezSpec[idx] = 0
				continue
			}
			y := idx / (n * n)
			x := (idx / n) % n
			z := idx % n
			my := signedMode(yLo+y, n)
			mx := signedMode(x, n)
			mz := signedMode(z, n)
			phi := complex(gInf*scale, 0) * spec[idx]
			phiSpec[idx] = phi
			// E(k) = −i k φ(k)
			exSpec[idx] = complex(0, -g*float64(mx)) * phi
			eySpec[idx] = complex(0, -g*float64(my)) * phi
			ezSpec[idx] = complex(0, -g*float64(mz)) * phi
		}
	})
	c.Compute(costs.MeshPoint * float64(len(spec)))

	potMesh := s.slab.InverseInto(nil, slices.Clone(phiSpec))
	exMesh := s.slab.InverseInto(nil, slices.Clone(exSpec))
	eyMesh := s.slab.InverseInto(nil, slices.Clone(eySpec))
	ezMesh := s.slab.InverseInto(nil, slices.Clone(ezSpec))

	// 5. Return mesh values needed by each rank's interpolation region,
	// emitted straight from the plan's (flat, local) lists — the same
	// values in the same order the region scan produced.
	retParts := make([][]float64, c.Size())
	for r := 0; r < c.Size(); r++ {
		flats, locs := fp.retFlat[r], fp.retLoc[r]
		if len(flats) == 0 {
			continue
		}
		part := vmpi.Owned[float64](5 * len(flats))
		for k, flat := range flats {
			li := locs[k]
			part = append(part,
				float64(flat),
				real(potMesh[li]), real(exMesh[li]), real(eyMesh[li]), real(ezMesh[li]))
		}
		retParts[r] = part
	}
	retRecv := vmpi.AlltoallOwned(c, retParts)
	recvOff, recvIdx := refRecvPlan(fp, retRecv, n)
	vals := make([]float64, 4*bx*by*bz)
	nvals := 0
	for sr := range retRecv {
		blk := retRecv[sr]
		nvals += len(blk) / 5
		off, idx := recvOff[sr], recvIdx[sr]
		for i := 0; i+4 < len(blk); i += 5 {
			e := i / 5
			for _, d := range idx[off[e]:off[e+1]] {
				vals[4*d] = blk[i+1]
				vals[4*d+1] = blk[i+2]
				vals[4*d+2] = blk[i+3]
				vals[4*d+3] = blk[i+4]
			}
		}
	}
	vmpi.ReleaseBlocks(retRecv)
	c.Compute(costs.MeshPoint * float64(nvals))

	// 6. Interpolate back to the owned particles, reading the dense
	// grown-block value array.
	hostpar.For(len(own), asgGrain, func(plo, phi int) {
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
						wt := w[0][ix] * w[1][iy] * w[2][iz]
						d := 4 * (((base[0]+ix-lo[0])*by+base[1]+iy-lo[1])*bz + base[2] + iz - lo[2])
						pot[pi] += wt * vals[d]
						field[3*pi] += wt * vals[d+1]
						field[3*pi+1] += wt * vals[d+2]
						field[3*pi+2] += wt * vals[d+3]
					}
				}
			}
		}
	})
	c.Compute(costs.MeshPoint * float64(len(own)*s.Order*s.Order*s.Order))
}

// farFieldRun is what one world of two far-field solves produced on one
// rank: the bits of pot and field after each solve, and the mesh geometry.
type farFieldRun struct {
	bits       [2][]uint64
	mesh, span int // mesh points per dimension; widest grown block side
}

// runFarField runs two far-field solves per rank with solve — farField or
// refFarField — moving the particles in between, so the second solve runs on
// the plan the first one built. The accumulators start at random values, as
// the near field leaves them, so the order of the far field's additions
// shows in the bits.
func runFarField(ranks, order, perRank int, solve func(*Solver, []pRec, []float64, []float64)) *vmpi.Stats {
	return vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		s := meshSolver(c, order, perRank)
		s.far = nil // as Tune leaves it: the first solve builds the plan
		rng := rand.New(rand.NewSource(int64(1000*ranks + 10*order + c.Rank())))
		own := clusteredOwn(s, rng, perRank, max(1, perRank/4))
		pot, field := make([]float64, perRank), make([]float64, 3*perRank)
		for i := range pot {
			pot[i] = rng.NormFloat64()
		}
		for i := range field {
			field[i] = rng.NormFloat64()
		}
		var run farFieldRun
		for step := range run.bits {
			solve(s, own, pot, field)
			run.bits[step] = append(blockBits(pot), blockBits(field)...)
			jiggle(s, rng, own)
		}
		run.mesh, run.span = s.Mesh, max(s.far.bx, s.far.by, s.far.bz)
		c.SetResult(run)
	})
}

// TestFarFieldMatchesReference compares farField with refFarField bit for
// bit: pot and field after each of two solves (the second on the reused plan
// and cell map), every rank's virtual clock, and every rank's message and
// byte counts. Ranks 1, 2, 3 and 8 (one rank's region wraps the mesh in
// every dimension; three ranks split the slabs unevenly); spline orders 2
// and 3; GOMAXPROCS 1 and 4; and a 16³ mesh on 8 ranks, where every
// region wraps round the mesh and, at order 3, is wider than it, so one
// returned value serves several cells.
func TestFarFieldMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type tc struct{ ranks, perRank int }
	cases := []tc{{1, 5*asgGrain + 17}, {2, 5*asgGrain + 17}, {3, 5*asgGrain + 17}, {8, 5*asgGrain + 17}, {8, 10}}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, order := range []int{2, 3} {
			for _, k := range cases {
				name := fmt.Sprintf("GOMAXPROCS %d order %d ranks %d perRank %d", procs, order, k.ranks, k.perRank)
				got := runFarField(k.ranks, order, k.perRank, (*Solver).farField)
				want := runFarField(k.ranks, order, k.perRank, refFarField)
				if err := sameFarField(got, want); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				run := got.Values[0].(farFieldRun)
				if k.perRank == 10 && order == 3 && run.span <= run.mesh {
					t.Errorf("%s: block side %d does not exceed the %d³ mesh; the wrapping case is lost", name, run.span, run.mesh)
				}
			}
		}
	}
}

// sameFarField reports the first difference between two far-field worlds.
func sameFarField(got, want *vmpi.Stats) error {
	for r := range want.Values {
		g, w := got.Values[r].(farFieldRun), want.Values[r].(farFieldRun)
		for step := range w.bits {
			for i := range w.bits[step] {
				if g.bits[step][i] != w.bits[step][i] {
					return fmt.Errorf("rank %d solve %d: output %d is %x, reference %x", r, step, i, g.bits[step][i], w.bits[step][i])
				}
			}
		}
		if math.Float64bits(got.Clocks[r]) != math.Float64bits(want.Clocks[r]) {
			return fmt.Errorf("rank %d: clock %v, reference %v", r, got.Clocks[r], want.Clocks[r])
		}
		if got.MessagesSent[r] != want.MessagesSent[r] || got.BytesSent[r] != want.BytesSent[r] {
			return fmt.Errorf("rank %d: %d messages / %d bytes, reference %d / %d", r,
				got.MessagesSent[r], got.BytesSent[r], want.MessagesSent[r], want.BytesSent[r])
		}
	}
	return nil
}

// retainedBytes is the scratch a rank's far field keeps between solves: the
// summed capacity, in bytes, of every slice reachable from the plan and the
// slab transform (slices of slices and arrays of slices included).
func retainedBytes(s *Solver) int {
	return sliceBytes(reflect.ValueOf(s.far).Elem()) + sliceBytes(reflect.ValueOf(s.slab).Elem())
}

func sliceBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		b := v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			b += sliceBytes(v.Index(i))
		}
		return b
	case reflect.Array:
		b := 0
		for i := 0; i < v.Len(); i++ {
			b += sliceBytes(v.Index(i))
		}
		return b
	case reflect.Struct:
		b := 0
		for i := 0; i < v.NumField(); i++ {
			b += sliceBytes(v.Field(i))
		}
		return b
	}
	return 0
}

// TestFarFieldRetainedScratch pins the far field's retained footprint at
// md-pnfft's shape (8 ranks, 750 particles per rank, order 3, 64³ mesh)
// after two solves: three complex mesh slabs (rho, spec, comp), four real
// ones (re), the grown charge block, the deposit lists, the cell map, the
// influence table and the return lists — and nothing else. A slab-sized
// buffer added to the plan or to fft.Slab fails it.
func TestFarFieldRetainedScratch(t *testing.T) {
	const ranks, perRank, order = 8, 750, 3
	vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		s := meshSolver(c, order, perRank)
		own := clusteredOwn(s, rand.New(rand.NewSource(int64(c.Rank()))), perRank, perRank)
		pot, field := make([]float64, perRank), make([]float64, 3*perRank)
		for i := 0; i < 2; i++ {
			s.farField(own, pot, field)
		}
		fp, n := s.far, s.Mesh
		if n != 64 {
			t.Errorf("rank %d: mesh %d, want md-pnfft's 64", c.Rank(), n)
		}
		xSlab := s.slab.LocalXSize() * n * n
		ySlab := s.slab.LocalYSize() * n * n
		cells := fp.bx * fp.by * fp.bz
		retFlat, _ := refRetPlan(s, fp)
		entries := 0
		for _, l := range retFlat {
			entries += len(l)
		}
		const c128, f64, i32, header = 16, 8, 4, 24
		want := c128*(xSlab+2*ySlab) + // rho; spec and comp
			f64*4*xSlab + // re
			f64*cells + // block
			(i32+f64)*perRank*order*order*order + // depCell, depVal
			8*cells + // cell map: two int32 per cell
			f64*ySlab + // infl
			2*(header*ranks+i32*entries) + // retFlat, retLoc
			2*8*ranks // recvLen, chargeLen
		if got := retainedBytes(s); got != want {
			t.Errorf("rank %d: far field retains %d bytes, want %d (%.1f complex slabs)", c.Rank(), got, want, float64(got-want)/(c128*float64(xSlab)))
		}
	})
}
