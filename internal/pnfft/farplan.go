package pnfft

// farPlan caches everything about the far-field evaluation that is a pure
// function of the post-Tune geometry (process grid, mesh size, spline order,
// Ewald split, slab decomposition): the influence-function table, the
// return-exchange emission plan, the receive-side cell map, and the
// per-call scratch buffers. farField used to rebuild all of it every call —
// the influence function alone is an exp and a pow per spectral point, per
// rank, per time step — and the per-call maps (`seen`, `values`) dominated
// both the allocation and the CPU profile of the solver.
//
// The mesh scratch is one spectrum, one component buffer and one output
// mesh (spec, comp, rho), plus the real parts of the four inverse
// transforms (re): the four components stream through comp and rho one after
// another. The returned mesh values are not scattered into a dense block;
// the cell map points each interpolation cell at its values in the received
// blocks.
//
// Determinism contract: the plan only changes *when* these quantities are
// computed and where they are held, never their values or the order in
// which they are emitted or summed. Every table is built by the exact scan
// the inline code used, so the messages of step 2/5 and the accumulation
// order of steps 1/4/6 — and with them the virtual clock — are bit-identical
// to the un-cached solver.
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

	// Receive-side cell map, built from the first return exchange (the set
	// of flats each sender delivers is fixed geometry after Tune):
	// cells[k] locates the four values of grown-block cell k, and
	// recvLen[sr] is the length of sender sr's block that fixes them.
	cells   []recvCell
	recvLen []int

	// chargeLen[r] is the longest charge message rank r has got: the size
	// to draw each solve's send buffer at.
	chargeLen []int

	// Per-call scratch, reused across time steps.
	block   []float64
	depCell []int32      // grown-block cell of every assignment deposit
	depVal  []float64    // tile partial carried by the deposit (assignCharges)
	rho     []complex128 // charge x-slab, then each inverse transform's output
	spec    []complex128 // charge spectrum, then φ in place
	comp    []complex128 // the spectrum of one of pot, Ex, Ey, Ez (consumed by the inverse)
	re      [4][]float64 // real parts of the pot, Ex, Ey, Ez meshes
}

// recvCell locates a grown-block cell's returned values: pot, Ex, Ey, Ez
// are the four floats at offset off of the block received from rank src.
type recvCell struct{ src, off int32 }

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
	p.lo, p.hi = s.meshRegionOf(s.comm.Rank())
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
		nx := 0
		for gx := rlo[0]; gx < min(rhi[0], rlo[0]+n); gx++ {
			if wx := wrapIdx(gx, n); wx >= p.xLo && wx < p.xHi {
				nx++
			}
		}
		cnt := nx * (min(rhi[1], rlo[1]+n) - rlo[1]) * (min(rhi[2], rlo[2]+n) - rlo[2])
		p.retFlat[r] = make([]int32, 0, cnt)
		p.retLoc[r] = make([]int32, 0, cnt)
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

// buildCellMap derives the receive-side cell map from the first return
// exchange: the grown-block cells each received entry's values serve. The
// flats every sender delivers are a pure function of the post-Tune geometry,
// so later exchanges are read positionally (with a length check standing
// guard on that assumption). Every cell must be served by exactly one entry:
// a cell served twice or never is a broken exchange, and panics.
func (p *farPlan) buildCellMap(recv [][]float64, n int) {
	p.recvLen = make([]int, len(recv))
	p.cells = make([]recvCell, p.bx*p.by*p.bz)
	for k := range p.cells {
		p.cells[k] = recvCell{-1, -1}
	}
	for sr, blk := range recv {
		p.recvLen[sr] = len(blk)
		for i := 0; i+4 < len(blk); i += 5 {
			// The grown-block cells that wrap onto the entry's mesh point:
			// per dimension the first one, then every n-th.
			flat := int(blk[i])
			gx0 := wrapIdx(flat/(n*n)-p.lo[0], n)
			gy0 := wrapIdx(flat/n%n-p.lo[1], n)
			gz0 := wrapIdx(flat%n-p.lo[2], n)
			for gx := gx0; gx < p.bx; gx += n {
				for gy := gy0; gy < p.by; gy += n {
					for gz := gz0; gz < p.bz; gz += n {
						k := (gx*p.by+gy)*p.bz + gz
						if p.cells[k].src >= 0 {
							panic("pnfft: two returned mesh values for one interpolation cell")
						}
						p.cells[k] = recvCell{src: int32(sr), off: int32(i + 1)}
					}
				}
			}
		}
	}
	for _, cl := range p.cells {
		if cl.src < 0 {
			panic("pnfft: returned mesh values do not cover the interpolation block")
		}
	}
}

// zeroF clears a float64 scratch slice (compiled to a memclr).
func zeroF(buf []float64) {
	for i := range buf {
		buf[i] = 0
	}
}
