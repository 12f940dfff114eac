package pnfft

// farPlan caches everything about the far-field evaluation that is a pure
// function of the post-Tune geometry (process grid, mesh size, spline order,
// Ewald split, slab decomposition): the influence-function table, the
// return-exchange emission plan, the receive-side scatter plan, and the
// per-call scratch buffers. farField used to rebuild all of it every call —
// the influence function alone is an exp and a pow per spectral point, per
// rank, per time step — and the per-call maps (`seen`, `values`) dominated
// both the allocation and the CPU profile of the solver.
//
// Determinism contract: the plan only changes *when* these quantities are
// computed, never their values or the order in which they are emitted. Every
// table is built by the exact scan the inline code used, so the messages of
// step 2/5 and the accumulation order of steps 1/4/6 — and with them the
// virtual clock — are bit-identical to the un-cached solver.
type farPlan struct {
	// Geometry snapshot (the grown interpolation block and the slab range).
	lo, hi     [3]int
	bx, by, bz int
	xLo, xHi   int

	// infl[idx] is the influence function at local spectral index idx, i.e.
	// influence(signedMode...) for the y-slab point the index addresses.
	infl []float64

	// Return-exchange sender plan: for destination rank r, retFlat[r] and
	// retLoc[r] are the parallel lists of (global flat mesh index, local
	// slab index) in the exact order the scanning loop emitted them.
	retFlat [][]int32
	retLoc  [][]int32

	// Receive-side scatter plan, built from the first exchange (the set of
	// flats each sender delivers is fixed geometry after Tune): entry e of
	// sender sr fills the dense grown-block cells
	// recvIdx[sr][recvOff[sr][e]:recvOff[sr][e+1]].
	recvBuilt bool
	recvLen   []int
	recvOff   [][]int32
	recvIdx   [][]int32

	// chargeLen[r] is the length of the charge message rank r got last
	// solve: the size to draw this solve's send buffer at.
	chargeLen []int

	// Per-call scratch, reused across time steps.
	block   []float64
	depCell []int32   // grown-block cell of every assignment deposit
	depVal  []float64 // tile partial carried by the deposit (assignCharges)
	rho     []complex128
	spec    []complex128
	phiSpec []complex128
	exSpec  []complex128
	eySpec  []complex128
	ezSpec  []complex128
	mesh    [4][]complex128 // pot, ex, ey, ez real-space meshes
	vals    []float64       // 4 returned values per dense grown-block cell
}

// growF and growC resize a scratch slice, reallocating only on capacity
// growth. Contents are unspecified.
func growF(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growC(buf []complex128, n int) []complex128 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]complex128, n)
}

// buildFarPlan computes the geometry-derived tables. Called lazily on the
// first farField after Tune (Tune discards the previous plan).
func (s *Solver) buildFarPlan() *farPlan {
	n := s.Mesh
	L := s.box.Lengths()[0]
	p := &farPlan{}
	p.lo, p.hi = s.meshRegion()
	p.bx, p.by, p.bz = p.hi[0]-p.lo[0], p.hi[1]-p.lo[1], p.hi[2]-p.lo[2]
	p.xLo, p.xHi = s.slab.XRange(s.comm.Rank())

	// Influence table: same arguments, same order as the inline loop.
	yLo, _ := s.slab.YRange(s.comm.Rank())
	p.infl = make([]float64, s.slab.LocalYSize()*n*n)
	for idx := range p.infl {
		y := idx / (n * n)
		x := (idx / n) % n
		z := idx % n
		p.infl[idx] = influence(signedMode(x, n), signedMode(yLo+y, n), signedMode(z, n), n, L, s.Alpha, s.Order)
	}

	// Return-exchange sender plan: reproduce the region scan (including its
	// per-destination wrap dedup) exactly, recording indices instead of
	// emitting values.
	size := s.comm.Size()
	p.chargeLen = make([]int, size)
	p.retFlat = make([][]int32, size)
	p.retLoc = make([][]int32, size)
	for r := 0; r < size; r++ {
		// A region wider than the mesh wraps onto a point more than once;
		// the scan emits each point at its first image, which is within the
		// first n indices of every dimension.
		rlo, rhi := s.meshRegionOf(r)
		for gx := rlo[0]; gx < min(rhi[0], rlo[0]+n); gx++ {
			wx := wrapIdx(gx, n)
			if wx < p.xLo || wx >= p.xHi {
				continue
			}
			for gy := rlo[1]; gy < min(rhi[1], rlo[1]+n); gy++ {
				wy := wrapIdx(gy, n)
				for gz := rlo[2]; gz < min(rhi[2], rlo[2]+n); gz++ {
					wz := wrapIdx(gz, n)
					p.retFlat[r] = append(p.retFlat[r], int32((wx*n+wy)*n+wz))
					p.retLoc[r] = append(p.retLoc[r], int32((wx-p.xLo)*n*n+wy*n+wz))
				}
			}
		}
	}
	return p
}

// buildRecvPlan derives the receive-side scatter plan from the first
// return exchange: which dense grown-block cells each received entry fills.
// The flats every sender delivers are a pure function of the post-Tune
// geometry, so later exchanges are scattered positionally (with a length
// check standing guard on that assumption).
func (p *farPlan) buildRecvPlan(recv [][]float64, n int) {
	covered := 0
	p.recvLen = make([]int, len(recv))
	p.recvOff = make([][]int32, len(recv))
	p.recvIdx = make([][]int32, len(recv))
	for sr := range recv {
		blk := recv[sr]
		cnt := len(blk) / 5
		p.recvLen[sr] = len(blk)
		off := make([]int32, cnt+1)
		var idx []int32
		for e := 0; e < cnt; e++ {
			// The grown-block cells that wrap onto the entry's mesh point,
			// in scan order: per dimension the first one, then every n-th.
			flat := int(blk[5*e])
			gx0 := wrapIdx(flat/(n*n)-p.lo[0], n)
			gy0 := wrapIdx(flat/n%n-p.lo[1], n)
			gz0 := wrapIdx(flat%n-p.lo[2], n)
			for gx := gx0; gx < p.bx; gx += n {
				for gy := gy0; gy < p.by; gy += n {
					for gz := gz0; gz < p.bz; gz += n {
						idx = append(idx, int32((gx*p.by+gy)*p.bz+gz))
					}
				}
			}
			off[e+1] = int32(len(idx))
		}
		covered += len(idx)
		p.recvOff[sr] = off
		p.recvIdx[sr] = idx
	}
	if covered != p.bx*p.by*p.bz {
		panic("pnfft: returned mesh values do not cover the interpolation block")
	}
	p.recvBuilt = true
}

// zeroF clears a float64 scratch slice (compiled to a memclr).
func zeroF(buf []float64) {
	for i := range buf {
		buf[i] = 0
	}
}
