package fmm

import (
	"math"

	"repro/internal/api"
	"repro/internal/costs"
	"repro/internal/coupling"
	"repro/internal/particle"
	"repro/internal/psort"
	"repro/internal/redist"
	"repro/internal/vmpi"
	"repro/internal/zorder"
)

// Solver is the parallel FMM solver. Its domain decomposition assigns each
// process a contiguous segment of the Z-order curve over the leaf boxes,
// established by parallel sorting of the particles by Morton key (paper
// §II-B). It supports both redistribution methods of §III:
//
//   - method A (api.Input.Resort == false): the original particle order and
//     distribution is restored before returning, by sending every particle
//     back to its initial process and position.
//   - method B (api.Input.Resort == true): the changed (solver-specific) order
//     is returned together with resort indices created by inverting the
//     initial numbering (Fig. 5).
//
// When the application supplies the maximum particle movement and it is
// below the side length of a per-process cube of the system volume, the
// partition-based parallel sort is replaced by the merge-based parallel
// sort that uses only point-to-point communication (§III-B).
type Solver struct {
	comm *vmpi.Comm
	box  particle.Box
	tab  *Tables
	// Level is the octree leaf level; 0 means "choose during Tune".
	Level int
	// accuracy is the requested relative accuracy.
	accuracy float64
	// pipe is the solver-agnostic run pipeline (internal/coupling): it owns
	// the movement heuristic, the sort-phase timing, the method A/B
	// delivery tails, and the steady-state tracking.
	pipe *coupling.Pipeline[pRec]
	// Per-call scratch reused across Run invocations (the engine only
	// reads these during compute, so the buffers are free again when it
	// returns).
	posBuf, qBuf []float64
	keyBuf       []uint64
}

// grow returns a length-n view of *buf, reallocating only when the capacity
// is insufficient. Contents are unspecified; callers overwrite all entries.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// newSolver creates an FMM solver on the communicator for the given box,
// targeting the given relative accuracy (e.g. 1e-3).
func newSolver(c *vmpi.Comm, box particle.Box, accuracy float64) *Solver {
	if !box.Orthorhombic() {
		panic("fmm: box must be orthorhombic")
	}
	s := &Solver{comm: c, box: box, tab: NewTables(orderFor(accuracy)), accuracy: accuracy}
	s.pipe = coupling.New(c, method{s})
	return s
}

// NewSolver adapts newSolver to the api.Factory signature.
func NewSolver(c *vmpi.Comm, box particle.Box, accuracy float64) api.Solver {
	return newSolver(c, box, accuracy)
}

// Name implements api.Solver.
func (s *Solver) Name() string { return "fmm" }

// orderFor maps a relative accuracy to a Cartesian expansion order.
func orderFor(accuracy float64) int {
	switch {
	case accuracy >= 1e-2:
		return 4
	case accuracy >= 1e-3:
		return 6
	case accuracy >= 1e-4:
		return 7
	default:
		return 8
	}
}

// Tune chooses the subdivision level from the global particle count,
// targeting a moderate average number of particles per leaf box (the
// paper's FMM "optimizes the subdivision into boxes ... in the tuning
// step", §II-B).
func (s *Solver) Tune(in api.Input) error {
	totalN := int(vmpi.AllreduceVal(s.comm, int64(in.N), vmpi.Sum[int64]))
	if totalN == 0 {
		s.Level = 2
		return nil
	}
	const perLeaf = 10.0
	level := int(math.Round(math.Log(float64(totalN)/perLeaf) / math.Log(8)))
	if level < 2 {
		level = 2
	}
	if level > 7 {
		level = 7
	}
	s.Level = level
	s.pipe.Reset()
	return nil
}

// pRec is the particle record moved around by the solver: the Morton key,
// the origin index (initial process and position, the "consecutive
// numbering" of §III-A), and the physical data.
type pRec struct {
	Key     uint64
	Origin  redist.Index
	X, Y, Z float64
	Q       float64
}

// Run implements api.Solver by delegating to the coupling pipeline; the
// solver-specific hooks live on the method adapter below.
func (s *Solver) Run(in api.Input) (api.Output, error) {
	if s.Level == 0 {
		if err := s.Tune(in); err != nil {
			return api.Output{}, err
		}
	}
	return s.pipe.Run(in)
}

// LastRunStats implements api.StatsSource.
func (s *Solver) LastRunStats() api.RunStats { return s.pipe.LastStats() }

// method adapts the solver to the coupling pipeline's solver-specific
// hooks (coupling.Method): record building, the §III-B merge-sort
// threshold, the partition/merge parallel-sort strategy pair, and the FMM
// compute kernels.
type method struct{ *Solver }

// Decompose builds records with origin numbering and Morton keys.
func (m method) Decompose(in api.Input) []pRec {
	s := m.Solver
	c := s.comm
	recs := make([]pRec, in.N)
	probe := &engine{Tab: s.tab, Box: s.box, Level: s.Level,
		Periodic: s.box.Periodic[0] && s.box.Periodic[1] && s.box.Periodic[2]}
	for i := 0; i < in.N; i++ {
		recs[i] = pRec{
			Key:    probe.keyOf(in.Pos[3*i], in.Pos[3*i+1], in.Pos[3*i+2]),
			Origin: redist.MakeIndex(c.Rank(), i),
			X:      in.Pos[3*i], Y: in.Pos[3*i+1], Z: in.Pos[3*i+2],
			Q: in.Q[i],
		}
	}
	c.Compute(costs.CellAssign * float64(in.N))
	c.Gauge("fmm/records", float64(len(recs)))
	return recs
}

// MoveThreshold returns the side length of a per-process cube of the
// system volume: below it, the merge-based sort replaces the
// partition-based sort (§III-B).
func (m method) MoveThreshold() float64 {
	return math.Cbrt(m.box.Volume() / float64(m.comm.Size()))
}

// Exchange sorts the particles into boxes with the selected parallel
// sort. Only SortPartition routes its element exchange through the
// plan-backed redist.ExchangeBlocks, so the machine's staging budget
// (vmpi.Config.MaxExchangeBytes) bounds its staged bytes; SortMerge is one
// vmpi.Replay that never reads the budget.
func (m method) Exchange(recs []pRec, fast bool) ([]pRec, coupling.ExchangeInfo) {
	key := func(r pRec) uint64 { return r.Key }
	if fast {
		return psort.SortMerge(m.comm, recs, key), coupling.ExchangeInfo{Strategy: api.StrategyMerge}
	}
	return psort.SortPartition(m.comm, recs, key), coupling.ExchangeInfo{Strategy: api.StrategyPartition}
}

// Compute runs the FMM kernels; every received record is owned (the FMM
// creates no ghost duplicates during redistribution).
func (m method) Compute(recv []pRec) (own []pRec, pot, field []float64) {
	pot, field = m.compute(recv)
	return recv, pot, field
}

// Origin returns the record's origin index.
func (method) Origin(r pRec) redist.Index { return r.Origin }

// PosQ returns the record's position and charge.
func (method) PosQ(r pRec) (x, y, z, q float64) { return r.X, r.Y, r.Z, r.Q }

// compute runs the FMM proper on the sorted records and returns potentials
// and fields in record order.
func (s *Solver) compute(recs []pRec) (pot, field []float64) {
	c := s.comm
	n := len(recs)
	pos := grow(&s.posBuf, 3*n)
	q := grow(&s.qBuf, n)
	keys := grow(&s.keyBuf, n)
	for i, r := range recs {
		pos[3*i], pos[3*i+1], pos[3*i+2] = r.X, r.Y, r.Z
		q[i] = r.Q
		keys[i] = r.Key
	}
	e := newEngine(s.tab, s.box, s.Level, pos, q, keys)

	pot = make([]float64, n)
	field = make([]float64, 3*n)

	var ranges []keyRange
	base := 0.0
	charge := func() {
		c.Compute(e.CostSeconds - base)
		base = e.CostSeconds
	}
	c.Phase(api.PhaseFar, func() {
		e.upward()
		charge()
		ranges = gatherRanges(c, keys)
		s.exchangeMultipoles(e, ranges)
	})
	c.Phase(api.PhaseNear, func() {
		s.exchangeGhosts(e, ranges, keys, pos, q)
		charge()
	})
	c.Phase(api.PhaseFar, func() {
		e.downward()
		e.evalFarField(pot, field)
		charge()
	})
	c.Phase(api.PhaseNear, func() {
		e.evalNearField(pot, field)
		charge()
	})
	return pot, field
}

// keyRange describes one rank's owned leaf-key span.
type keyRange struct {
	First, Last uint64
	Count       int64
}

func gatherRanges(c *vmpi.Comm, keys []uint64) []keyRange {
	kr := keyRange{Count: int64(len(keys))}
	if len(keys) > 0 {
		kr.First = keys[0]
		kr.Last = keys[len(keys)-1]
	}
	return vmpi.Allgather(c, []keyRange{kr})
}

// owners returns the ranks whose leaf-key span intersects [lo, hi].
func owners(ranges []keyRange, lo, hi uint64, dst []int) []int {
	for r, kr := range ranges {
		if kr.Count == 0 {
			continue
		}
		if kr.First <= hi && kr.Last >= lo {
			dst = append(dst, r)
		}
	}
	return dst
}

// boxSpan returns the leaf-key range covered by a level-l box.
func (s *Solver) boxSpan(l int, key uint64) (lo, hi uint64) {
	shift := uint(3 * (s.Level - l))
	return key << shift, (key+1)<<shift - 1
}

// exchangeMultipoles pushes each owned box's partial multipole to the
// owners of every box in its interaction list (the symmetric LET exchange)
// and folds received partials into the engine tables.
func (s *Solver) exchangeMultipoles(e *engine, ranges []keyRange) {
	c := s.comm
	p := c.Size()
	nc := s.tab.NCoef()
	keyParts := make([][]uint64, p)
	valParts := make([][]float64, p)
	dest := make([]bool, p) // destinations of the current box
	var dsts []int
	var ilBuf [maxInteractions]uint64
	for l := 1; l <= s.Level; l++ {
		// Sorted iteration keeps the message payload order (and with it the
		// whole exchange) independent of Go's randomized map traversal.
		for _, key := range sortedKeys(e.M[l]) {
			for _, il := range e.interactionList(ilBuf[:0], l, key) {
				lo, hi := s.boxSpan(l, il)
				dsts = owners(ranges, lo, hi, dsts[:0])
				for _, d := range dsts {
					dest[d] = d != c.Rank()
				}
			}
			M := e.M[l][key]
			for d, send := range dest {
				if send {
					dest[d] = false
					keyParts[d] = append(keyParts[d], uint64(l)<<58|key)
					valParts[d] = append(valParts[d], M...)
				}
			}
		}
	}
	// The per-destination parts are freshly built and disjoint, so their
	// buffers can be relinquished into the messages without a copy.
	recvKeys := vmpi.AlltoallOwned(c, keyParts)
	recvVals := vmpi.AlltoallOwned(c, valParts)
	for r := 0; r < p; r++ {
		ks := recvKeys[r]
		vs := recvVals[r]
		if len(vs) != len(ks)*nc {
			panic("fmm: multipole exchange length mismatch")
		}
		for i, lk := range ks {
			l := int(lk >> 58)
			key := lk & (1<<58 - 1)
			e.addRemoteMultipole(l, key, vs[i*nc:(i+1)*nc])
		}
	}
	vmpi.ReleaseBlocks(recvKeys)
	vmpi.ReleaseBlocks(recvVals)
}

// ghostRec is a particle pushed to a neighboring process for its near
// field.
type ghostRec struct {
	X, Y, Z, Q float64
}

// exchangeGhosts pushes the particles of every owned leaf box to the owners
// of its neighbor boxes and registers received particles as ghosts.
func (s *Solver) exchangeGhosts(e *engine, ranges []keyRange, keys []uint64, pos, q []float64) {
	c := s.comm
	p := c.Size()
	parts := make([][]ghostRec, p)
	var dsts []int
	var nbs [27]uint64
	dest := make([]bool, p)
	lo := 0
	for lo < len(keys) {
		hi := lo
		for hi < len(keys) && keys[hi] == keys[lo] {
			hi++
		}
		clear(dest)
		for _, nb := range zorder.Neighbors3Into(nbs[:0], keys[lo], s.Level, e.Periodic) {
			blo, bhi := nb, nb
			dsts = owners(ranges, blo, bhi, dsts[:0])
			for _, d := range dsts {
				if d != c.Rank() {
					dest[d] = true
				}
			}
		}
		for d, send := range dest {
			if !send {
				continue
			}
			for i := lo; i < hi; i++ {
				parts[d] = append(parts[d], ghostRec{pos[3*i], pos[3*i+1], pos[3*i+2], q[i]})
			}
		}
		lo = hi
	}
	// The parts are freshly built and disjoint, so they are relinquished
	// into the messages without a copy.
	recv := vmpi.AlltoallOwned(c, parts)
	var gpos []float64
	var gq []float64
	for _, b := range recv {
		for _, g := range b {
			gpos = append(gpos, g.X, g.Y, g.Z)
			gq = append(gq, g.Q)
		}
	}
	vmpi.ReleaseBlocks(recv)
	e.addGhosts(gpos, gq)
}

// Compile-time checks: Solver satisfies the coupling library's interface
// and exposes the pipeline's run statistics.
var (
	_ api.Solver            = (*Solver)(nil)
	_ api.StatsSource       = (*Solver)(nil)
	_ coupling.Method[pRec] = method{}
)
