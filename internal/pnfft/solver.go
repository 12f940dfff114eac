package pnfft

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/api"
	"repro/internal/cells"
	"repro/internal/costs"
	"repro/internal/coupling"
	"repro/internal/fft"
	"repro/internal/hostpar"
	"repro/internal/particle"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// Host-parallel tile grains for the mesh kernels (pure constants, so the
// tile decomposition is a property of the problem size only).
const (
	asgGrain  = 64  // particles per tile in charge assignment / interpolation
	specGrain = 512 // spectral mesh points per tile in the influence loop
)

// Solver is the parallel P2NFFT-style solver. Its domain decomposition
// distributes the particle system uniformly among a Cartesian process grid
// (paper §II-C); the particle redistribution step creates ghost particles
// at subdomain boundaries for the linked-cell near field. Both
// redistribution methods of §III are supported, and with a known limited
// particle movement the all-to-all redistribution is replaced by
// neighborhood communication with point-to-point messages within the
// Cartesian neighbor set (§III-B).
type Solver struct {
	comm *vmpi.Comm
	cart *vmpi.Cart
	dims []int
	box  particle.Box

	accuracy float64

	// Tuned parameters (exported for inspection and tests).
	RCut  float64
	Alpha float64
	Mesh  int
	Order int

	slab      *fft.Slab
	slabOwner []int // mesh x-plane -> owning rank
	// far caches the geometry-derived far-field tables and scratch
	// (farplan.go); rebuilt lazily after each Tune.
	far *farPlan
	// Near-field scratch reused across time steps: the linked-cell grid and
	// the packed position/charge arrays.
	nearGrid *cells.Grid
	nearPos  []float64
	nearQ    []float64
	// pipe is the solver-agnostic run pipeline (internal/coupling): it owns
	// the movement heuristic, the sort-phase timing, the method A/B
	// delivery tails, and the steady-state tracking.
	pipe *coupling.Pipeline[pRec]
	// targets holds the per-item target ranks between Decompose and
	// Exchange within one pipeline run.
	targets []int
}

// Input aliases api.Input.
type Input = api.Input

// New creates a P2NFFT solver on the communicator. The box must be cubic
// and fully periodic (the method is an Ewald-type solver).
func New(c *vmpi.Comm, box particle.Box, accuracy float64) *Solver {
	if !box.Orthorhombic() {
		panic("pnfft: box must be orthorhombic")
	}
	l := box.Lengths()
	if l[0] != l[1] || l[1] != l[2] {
		panic("pnfft: box must be cubic")
	}
	if !(box.Periodic[0] && box.Periodic[1] && box.Periodic[2]) {
		panic("pnfft: box must be fully periodic")
	}
	dims := vmpi.DimsCreate(c.Size(), 3)
	cart := vmpi.CartCreate(c, dims, []bool{true, true, true})
	if accuracy <= 0 || accuracy >= 1 {
		accuracy = 1e-3
	}
	s := &Solver{comm: c, cart: cart, dims: dims, box: box, accuracy: accuracy}
	s.pipe = coupling.New(c, method{s})
	return s
}

// NewSolver adapts New to the api.Factory signature.
func NewSolver(c *vmpi.Comm, box particle.Box, accuracy float64) api.Solver {
	return New(c, box, accuracy)
}

// Name implements api.Solver.
func (s *Solver) Name() string { return "p2nfft" }

// SetAssignmentOrder overrides the charge-assignment spline order before
// Tune: 2 (cloud-in-cell) or 3 (triangular-shaped cloud, the default).
// Lower orders are cheaper per particle but less accurate — the classic
// particle-mesh trade-off, kept as an ablation knob.
func (s *Solver) SetAssignmentOrder(order int) {
	if order != 2 && order != 3 {
		panic("pnfft: assignment order must be 2 or 3")
	}
	s.Order = order
}

// Tune chooses the Ewald split parameters: the real-space cutoff follows
// the particle density (the paper's fixed cutoff of 4.8 on the 248³ melt is
// about 1.8 mean ion spacings) and is fitted into one ghost layer of the
// process grid; the splitting parameter and mesh size follow from the
// standard exponential error estimates.
func (s *Solver) Tune(in Input) error {
	l := s.box.Lengths()[0]
	minSub := l
	for d, n := range s.dims {
		side := s.box.Lengths()[d] / float64(n)
		if side < minSub {
			minSub = side
		}
	}
	totalN := int(vmpi.AllreduceVal(s.comm, int64(in.N), vmpi.Sum[int64]))
	rc := 0.3 * l
	if totalN > 0 {
		spacing := math.Cbrt(s.box.Volume() / float64(totalN))
		rc = 1.8 * spacing
	}
	if rc > 0.95*minSub {
		rc = 0.95 * minSub
	}
	if rc > 0.45*l {
		rc = 0.45 * l
	}
	if rc < l/64 {
		rc = l / 64 // keep the mesh bounded for very dilute inputs
	}
	sAcc := math.Sqrt(-math.Log(s.accuracy))
	s.RCut = rc
	s.Alpha = sAcc / rc
	modes := int(math.Ceil(s.Alpha * sAcc * l / math.Pi))
	mesh := nextPow2(2*modes + 4)
	if mesh < 8 {
		mesh = 8
	}
	if mesh > 256 {
		mesh = 256
	}
	s.Mesh = mesh
	if s.Order == 0 {
		s.Order = 3
	}
	s.slab = fft.NewSlab(s.comm, mesh, mesh, mesh)
	s.slabOwner = make([]int, mesh)
	for r := 0; r < s.comm.Size(); r++ {
		lo, hi := s.slab.XRange(r)
		for x := lo; x < hi; x++ {
			s.slabOwner[x] = r
		}
	}
	s.far = nil // geometry may have changed; rebuild the far-field plan lazily
	s.pipe.Reset()
	return nil
}

// subBounds returns the calling rank's subdomain [lo, hi) in real
// coordinates.
func (s *Solver) subBounds() (lo, hi [3]float64) {
	coords := s.cart.Coords(s.comm.Rank())
	fl, fh := particle.GridCellBounds(s.dims, coords)
	L := s.box.Lengths()
	for d := 0; d < 3; d++ {
		lo[d] = s.box.Offset[d] + fl[d]*L[d]
		hi[d] = s.box.Offset[d] + fh[d]*L[d]
	}
	return lo, hi
}

// pRec is the particle record of the redistribution step. Ghost copies
// carry redist.Invalid as Origin (paper §III-A) and positions shifted into
// the receiving subdomain's frame when they cross a periodic boundary.
type pRec struct {
	Origin     redist.Index
	X, Y, Z, Q float64
}

// Run implements api.Solver by delegating to the coupling pipeline; the
// solver-specific hooks live on the method adapter below.
func (s *Solver) Run(in Input) (api.Output, error) {
	if s.slab == nil {
		if err := s.Tune(in); err != nil {
			return api.Output{}, err
		}
	}
	return s.pipe.Run(in)
}

// LastRunStats implements api.StatsSource.
func (s *Solver) LastRunStats() api.RunStats { return s.pipe.LastStats() }

// method adapts the solver to the coupling pipeline's solver-specific
// hooks (coupling.Method): item building with ghost duplication, the
// §III-B neighborhood threshold, the all-to-all/neighborhood exchange
// strategy pair, and the P2NFFT compute kernels.
type method struct{ *Solver }

// Decompose builds the redistribution item list: one primary record per
// particle plus explicit ghost copies for neighbor subdomains within the
// cutoff. The per-item target ranks are retained for Exchange.
func (m method) Decompose(in api.Input) []pRec {
	items, targets := m.buildItems(in)
	m.Solver.targets = targets
	return items
}

// MoveThreshold returns the subdomain margin below which redistribution is
// restricted to direct Cartesian neighbors (§III-B).
func (m method) MoveThreshold() float64 {
	s := m.Solver
	minSub := math.Inf(1)
	L := s.box.Lengths()
	for d, n := range s.dims {
		if side := L[d] / float64(n); side < minSub {
			minSub = side
		}
	}
	return minSub - s.RCut
}

// Exchange redistributes the items with the collective all-to-all backend,
// or — on the fast path — with neighborhood point-to-point communication,
// reporting whether the neighborhood exchange had to fall back.
func (m method) Exchange(items []pRec, fast bool) ([]pRec, coupling.ExchangeInfo) {
	s := m.Solver
	targets := s.targets
	s.targets = nil
	tf := redist.ToRank(func(i int) int { return targets[i] })
	if fast {
		// One plan carries both the neighborhood attempt and the
		// collective fallback: the routing is built once, the feasibility
		// vote in NewPlan is collective, and Execute picks the backend.
		pl := redist.NewPlan(s.comm, len(items), tf, redist.Options{Neighbors: s.cart.Neighbors(1)})
		recv := redist.Execute(pl, items)
		usedNbr := pl.UsedNeighborhood()
		pl.Free()
		if !usedNbr {
			return recv, coupling.ExchangeInfo{Strategy: api.StrategyAlltoall, Fallback: true}
		}
		return recv, coupling.ExchangeInfo{Strategy: api.StrategyNeighborhood}
	}
	return redist.Exchange(s.comm, items, tf), coupling.ExchangeInfo{Strategy: api.StrategyAlltoall}
}

// Compute separates owned particles from ghosts (keeping arrival order)
// and runs the near-field, far-field, and correction kernels.
func (m method) Compute(recv []pRec) (own []pRec, pot, field []float64) {
	s := m.Solver
	c := s.comm
	var ghosts []pRec
	for _, r := range recv {
		if r.Origin.Valid() {
			own = append(own, r)
		} else {
			ghosts = append(ghosts, r)
		}
	}
	c.Compute(costs.Move * float64(len(recv)))

	pot = make([]float64, len(own))
	field = make([]float64, 3*len(own))
	c.Phase(api.PhaseNear, func() { s.nearField(own, ghosts, pot, field) })
	c.Phase(api.PhaseFar, func() { s.farField(own, pot, field) })
	s.corrections(own, pot)
	return own, pot, field
}

// Origin returns the record's origin index (redist.Invalid for ghosts).
func (method) Origin(r pRec) redist.Index { return r.Origin }

// PosQ returns the record's position and charge.
func (method) PosQ(r pRec) (x, y, z, q float64) { return r.X, r.Y, r.Z, r.Q }

// buildItems creates the redistribution items: each particle goes to its
// owner rank; copies within RCut of a subdomain boundary additionally go to
// the corresponding neighbor ranks as ghosts with invalid origin and, when
// the neighbor relation wraps around the box, positions shifted into the
// neighbor's frame.
func (s *Solver) buildItems(in Input) (items []pRec, targets []int) {
	c := s.comm
	L := s.box.Lengths()
	items = make([]pRec, 0, in.N+in.N/4)
	targets = make([]int, 0, cap(items))
	type ghostKey struct {
		rank       int
		sx, sy, sz int8
	}
	// At most one ghost per 3³−1 neighbor offset, so dedup runs over a
	// fixed-size array instead of a freshly allocated per-particle map.
	var seen [26]ghostKey
	for i := 0; i < in.N; i++ {
		x, y, z := in.Pos[3*i], in.Pos[3*i+1], in.Pos[3*i+2]
		x, y, z = s.box.Wrap(x, y, z)
		owner := particle.GridRank(&s.box, s.dims, x, y, z)
		items = append(items, pRec{Origin: redist.MakeIndex(c.Rank(), i), X: x, Y: y, Z: z, Q: in.Q[i]})
		targets = append(targets, owner)

		// Ghost copies: check the particle's distance to its owner cell's
		// boundaries.
		coords := s.coordsOfRank(owner)
		fl, fh := particle.GridCellBounds(s.dims, coords[:])
		var lo, hi [3]float64
		for d := 0; d < 3; d++ {
			lo[d] = s.box.Offset[d] + fl[d]*L[d]
			hi[d] = s.box.Offset[d] + fh[d]*L[d]
		}
		pos := [3]float64{x, y, z}
		nSeen := 0
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					off := [3]int{dx, dy, dz}
					near := true
					for d := 0; d < 3; d++ {
						switch off[d] {
						case -1:
							near = near && pos[d]-lo[d] < s.RCut
						case 1:
							near = near && hi[d]-pos[d] <= s.RCut
						}
					}
					if !near {
						continue
					}
					var nbCoords [3]int
					var shift [3]float64
					ok := true
					for d := 0; d < 3; d++ {
						nc := coords[d] + off[d]
						if nc < 0 {
							nc += s.dims[d]
							shift[d] = +L[d] // neighbor frame is above the box
						} else if nc >= s.dims[d] {
							nc -= s.dims[d]
							shift[d] = -L[d]
						}
						if nc < 0 || nc >= s.dims[d] {
							ok = false
						}
						nbCoords[d] = nc
					}
					if !ok {
						continue
					}
					nbRank := s.rankOfCoords(nbCoords)
					gk := ghostKey{rank: nbRank, sx: signOf(shift[0]), sy: signOf(shift[1]), sz: signOf(shift[2])}
					dup := false
					for k := 0; k < nSeen; k++ {
						if seen[k] == gk {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					seen[nSeen] = gk
					nSeen++
					items = append(items, pRec{
						Origin: redist.Invalid,
						X:      x + shift[0], Y: y + shift[1], Z: z + shift[2],
						Q: in.Q[i],
					})
					targets = append(targets, nbRank)
				}
			}
		}
	}
	c.Compute(costs.CellAssign * float64(in.N))
	c.Gauge("pnfft/ghosts", float64(len(items)-in.N))
	return items, targets
}

func signOf(v float64) int8 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func (s *Solver) coordsOfRank(r int) (c [3]int) {
	for d := 2; d >= 0; d-- {
		c[d] = r % s.dims[d]
		r /= s.dims[d]
	}
	return c
}

func (s *Solver) rankOfCoords(coords [3]int) int {
	r := 0
	for d := 0; d < 3; d++ {
		r = r*s.dims[d] + coords[d]
	}
	return r
}

// nearField computes the real-space erfc part with linked cells over the
// subdomain extended by the ghost layer. Ghost positions are already in the
// local frame, so no minimum-image logic is needed.
func (s *Solver) nearField(own, ghosts []pRec, pot, field []float64) {
	c := s.comm
	nOwn := len(own)
	nAll := nOwn + len(ghosts)
	if nAll == 0 {
		return
	}
	s.nearPos = growF(s.nearPos, 3*nAll)
	s.nearQ = growF(s.nearQ, nAll)
	pos, q := s.nearPos, s.nearQ
	for i, r := range own {
		pos[3*i], pos[3*i+1], pos[3*i+2], q[i] = r.X, r.Y, r.Z, r.Q
	}
	for j, r := range ghosts {
		i := nOwn + j
		pos[3*i], pos[3*i+1], pos[3*i+2], q[i] = r.X, r.Y, r.Z, r.Q
	}
	lo, hi := s.subBounds()
	for d := 0; d < 3; d++ {
		lo[d] -= s.RCut
		hi[d] += s.RCut
	}
	if s.nearGrid == nil {
		s.nearGrid = &cells.Grid{}
	}
	s.nearGrid.Rebuild(pos, nAll, lo, hi, s.RCut)
	grid := s.nearGrid
	c.Compute(costs.CellAssign * float64(nAll))

	a := s.Alpha
	rc2 := s.RCut * s.RCut
	twoOverSqrtPi := 2 / math.Sqrt(math.Pi)
	pairs := 0
	grid.ForEachPair(func(i, j int) {
		if i >= nOwn && j >= nOwn {
			return // ghost-ghost pairs belong to other processes
		}
		dx := pos[3*i] - pos[3*j]
		dy := pos[3*i+1] - pos[3*j+1]
		dz := pos[3*i+2] - pos[3*j+2]
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 || r2 > rc2 {
			return
		}
		pairs++
		r := math.Sqrt(r2)
		erfcTerm := math.Erfc(a*r) / r
		fr := (erfcTerm + twoOverSqrtPi*a*math.Exp(-a*a*r2)) / r2
		if i < nOwn {
			pot[i] += q[j] * erfcTerm
			field[3*i] += q[j] * fr * dx
			field[3*i+1] += q[j] * fr * dy
			field[3*i+2] += q[j] * fr * dz
		}
		if j < nOwn {
			pot[j] += q[i] * erfcTerm
			field[3*j] -= q[i] * fr * dx
			field[3*j+1] -= q[i] * fr * dy
			field[3*j+2] -= q[i] * fr * dz
		}
	})
	c.Compute(costs.Pair * float64(pairs))
}

// meshRegion returns the mesh index region (possibly exceeding [0, Mesh))
// that covers the subdomain plus the spline margin.
func (s *Solver) meshRegion() (lo, hi [3]int) {
	coords := s.cart.Coords(s.comm.Rank())
	fl, fh := particle.GridCellBounds(s.dims, coords)
	m := s.Order + 2
	for d := 0; d < 3; d++ {
		lo[d] = int(math.Floor(fl[d]*float64(s.Mesh))) - m
		hi[d] = int(math.Ceil(fh[d]*float64(s.Mesh))) + m
	}
	return lo, hi
}

// farField computes the Fourier-space part on the mesh with the
// slab-decomposed parallel FFT and interpolates potentials and fields back
// to the owned particles.
func (s *Solver) farField(own []pRec, pot, field []float64) {
	c := s.comm
	n := s.Mesh
	L := s.box.Lengths()[0]
	h := float64(n) / L // mesh points per unit length

	if s.far == nil {
		s.far = s.buildFarPlan()
	}
	fp := s.far

	// 1. Charge assignment into the local grown block.
	lo := fp.lo
	bx, by, bz := fp.bx, fp.by, fp.bz
	block := s.assignCharges(own, h)
	c.Compute(costs.MeshPoint * float64(len(own)*s.Order*s.Order*s.Order))

	// 2. Send (wrapped flat index, value) pairs to the slab owners. The
	// per-destination buffers are drawn from the vmpi pool (vmpi.Owned) at the
	// length the destination got last solve and grow through the pool, so
	// what is relinquished below is what a receiver released a solve earlier.
	parts := make([][]float64, c.Size())
	for gx := 0; gx < bx; gx++ {
		wx := wrapIdx(lo[0]+gx, n)
		dst := s.slabOwner[wx]
		for gy := 0; gy < by; gy++ {
			wy := wrapIdx(lo[1]+gy, n)
			for gz := 0; gz < bz; gz++ {
				v := block[(gx*by+gy)*bz+gz]
				if v == 0 {
					continue
				}
				wz := wrapIdx(lo[2]+gz, n)
				flat := float64((wx*n+wy)*n + wz)
				part := parts[dst]
				if len(part)+2 > cap(part) {
					part = append(vmpi.Owned[float64](max(fp.chargeLen[dst], 2*len(part))), part...)
					vmpi.Release(parts[dst])
				}
				parts[dst] = append(part, flat, v)
			}
		}
	}
	for dst, part := range parts {
		fp.chargeLen[dst] = len(part)
	}
	// Relinquish them, no copy; the slab owners release them after step 3.
	recv := vmpi.AlltoallOwned(c, parts)

	// 3. Assemble the charge slab and transform.
	xLo, xHi := fp.xLo, fp.xHi
	fp.rho = growC(fp.rho, (xHi-xLo)*n*n)
	rho := fp.rho
	for i := range rho {
		rho[i] = 0
	}
	for _, blk := range recv {
		for i := 0; i+1 < len(blk); i += 2 {
			flat := int(blk[i])
			x := flat / (n * n)
			rho[(x-xLo)*n*n+flat%(n*n)] += complex(blk[i+1], 0)
		}
	}
	vmpi.ReleaseBlocks(recv)
	c.Compute(costs.MeshPoint * float64(len(rho)))
	spec := s.slab.ForwardInto(fp.spec, rho)
	fp.spec = spec

	// 4. Influence function (from the plan's table — same values, computed
	// once per Tune instead of per step) and ik differentiation.
	fp.phiSpec = growC(fp.phiSpec, len(spec))
	fp.exSpec = growC(fp.exSpec, len(spec))
	fp.eySpec = growC(fp.eySpec, len(spec))
	fp.ezSpec = growC(fp.ezSpec, len(spec))
	phiSpec, exSpec, eySpec, ezSpec := fp.phiSpec, fp.exSpec, fp.eySpec, fp.ezSpec
	yLo, _ := s.slab.YRange(c.Rank())
	g := 2 * math.Pi / L
	// The inverse FFT normalizes by 1/n³, but the Ewald reciprocal sum is
	// an unnormalized sum over modes; compensate here.
	scale := float64(n) * float64(n) * float64(n)
	// Every spectral point writes only its own slot, so the loop tiles
	// freely across host workers with bit-identical results. Zeroed slots
	// are written in place of the fresh-allocation zeros of the old code.
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

	potMesh := s.slab.InverseInto(fp.mesh[0], phiSpec)
	exMesh := s.slab.InverseInto(fp.mesh[1], exSpec)
	eyMesh := s.slab.InverseInto(fp.mesh[2], eySpec)
	ezMesh := s.slab.InverseInto(fp.mesh[3], ezSpec)
	fp.mesh = [4][]complex128{potMesh, exMesh, eyMesh, ezMesh}

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
	// Pool-drawn like the charge parts: relinquish them, no copy; the
	// receivers release them after scattering.
	retRecv := vmpi.AlltoallOwned(c, retParts)
	if !fp.recvBuilt {
		fp.buildRecvPlan(retRecv, n)
	}
	fp.vals = growF(fp.vals, 4*bx*by*bz)
	vals := fp.vals
	nvals := 0
	for sr := range retRecv {
		blk := retRecv[sr]
		if len(blk) != fp.recvLen[sr] {
			panic("pnfft: returned mesh region changed size under a fixed plan")
		}
		nvals += len(blk) / 5
		off, idx := fp.recvOff[sr], fp.recvIdx[sr]
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
	// grown-block value array (each flat mesh value was scattered to every
	// grown cell that wraps to it, so the lookup is pure index arithmetic).
	// Each particle writes only its own output slots and vals is read-only
	// here, so the particle tiles run on host workers with bit-identical
	// results.
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

// zeroBlocks pools the dense scratch blocks of charge assignment. Every
// pooled block is all-zero over its whole length: a tile takes one, deposits
// into it and zeroes exactly the cells it touched before handing it back, so
// the number of blocks alive follows the concurrent host workers, not the
// tiles, and none is ever cleared wholesale. (Pointers to slices, so a Put
// boxes nothing.)
var zeroBlocks = sync.Pool{New: func() any { return new([]float64) }}

// assignCharges spreads the owned particles' charges (h mesh points per unit
// length) onto the rank's grown mesh block and returns it. The sum is two
// level and independent of GOMAXPROCS: each particle tile sums its deposits
// per cell in particle order on a host worker, and the tile partials are
// added to the block in tile order. A tile records the cell of every deposit,
// then moves each touched cell's partial out to the deposit that reached it
// first (later deposits of the cell find it cleared and carry +0), so the
// reduce is one add per deposit instead of one per block cell per tile.
// Adding a +0 partial is the identity — neither a tile's scratch nor the
// block can hold −0: both start at +0 and a round-to-nearest sum is −0 only
// from two −0 operands — so every block cell ends bit-identical to the dense
// per-tile reduce (assign_ref_test.go keeps that body as the oracle), and
// mesh points no particle touches stay exactly zero, which keeps the
// sparsity pattern sent to the slab owners in step 2.
func (s *Solver) assignCharges(own []pRec, h float64) []float64 {
	fp := s.far
	lo := fp.lo
	bx, by, bz := fp.bx, fp.by, fp.bz
	o3 := s.Order * s.Order * s.Order
	fp.block = growF(fp.block, bx*by*bz)
	fp.depVal = growF(fp.depVal, len(own)*o3)
	if cap(fp.depCell) < len(own)*o3 {
		fp.depCell = make([]int32, len(own)*o3)
	}
	block, cell, val := fp.block, fp.depCell[:len(own)*o3], fp.depVal
	zeroF(block)
	hostpar.For(len(own), asgGrain, func(plo, phi int) {
		zb := zeroBlocks.Get().(*[]float64)
		if len(*zb) < len(block) {
			*zb = make([]float64, len(block))
		}
		tb := *zb
		var w [3][3]float64 // splineWeights supports orders up to 3
		var base [3]int
		e := plo * o3
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
						k := (gx*by+gy)*bz + gz
						tb[k] += r.Q * w[0][ix] * w[1][iy] * w[2][iz]
						cell[e] = int32(k)
						e++
					}
				}
			}
		}
		for e := plo * o3; e < phi*o3; e++ {
			val[e] = tb[cell[e]]
			tb[cell[e]] = 0
		}
		zeroBlocks.Put(zb)
	})
	for e, k := range cell {
		block[k] += val[e]
	}
	return block
}

// meshRegionOf computes another rank's interpolation region.
func (s *Solver) meshRegionOf(r int) (lo, hi [3]int) {
	coords := s.cart.Coords(r)
	fl, fh := particle.GridCellBounds(s.dims, coords)
	m := s.Order + 2
	for d := 0; d < 3; d++ {
		lo[d] = int(math.Floor(fl[d]*float64(s.Mesh))) - m
		hi[d] = int(math.Ceil(fh[d]*float64(s.Mesh))) + m
	}
	return lo, hi
}

func wrapIdx(i, n int) int {
	return ((i % n) + n) % n
}

// corrections applies the Ewald self term and the neutralizing-background
// term for residual net charge.
func (s *Solver) corrections(own []pRec, pot []float64) {
	c := s.comm
	net := 0.0
	for _, r := range own {
		net += r.Q
	}
	net = vmpi.AllreduceVal(c, net, vmpi.Sum[float64])
	selfTerm := 2 * s.Alpha / math.Sqrt(math.Pi)
	bg := math.Pi / (s.Alpha * s.Alpha * s.box.Volume()) * net
	for i, r := range own {
		pot[i] -= selfTerm*r.Q + bg
	}
}

// Compile-time checks: Solver satisfies the coupling library's interface
// and exposes the pipeline's run statistics.
var (
	_ api.Solver            = (*Solver)(nil)
	_ api.StatsSource       = (*Solver)(nil)
	_ coupling.Method[pRec] = method{}
)
