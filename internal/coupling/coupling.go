// Package coupling implements the solver-agnostic half of a coupled solver
// run: the staged pipeline Decompose → Compute → Deliver that both the FMM
// and the P2NFFT solver run through (paper §III). The redistribution
// machinery of methods A and B belongs to the *library*, not to any one
// solver — this package is its single home:
//
//   - the §III-B movement heuristic: when the application bounds the maximum
//     particle displacement and the previous run returned the solver order
//     (steady state), a global Allreduce decides collectively whether the
//     fast exchange strategy applies;
//   - the sort/exchange strategy switch and the PhaseSort barrier+timer
//     around the solver's strategy pair (partition/merge parallel sort for
//     the FMM, all-to-all/neighborhood exchange for the P2NFFT);
//   - the collective capacity-contract negotiation of method B (if any
//     process cannot store the changed distribution, every process restores
//     the original order instead);
//   - method A's restore: results travel back to each particle's initial
//     process and position via the fine-grained redistribution operation
//     (§III-A, Fig. 4);
//   - method B's resort-index creation by inverting the origin numbering
//     (redist.InvertIndices, Fig. 5) and the assembly of the changed-order
//     output;
//   - the steady-state tracking (whether the previous run returned the
//     changed order, so the next input is almost sorted) and per-run
//     instrumentation (which strategy actually ran, how many elements moved
//     vs. stayed local, whether a neighborhood exchange fell back).
//
// Solvers plug in through the narrow Method interface: they build
// origin-tagged records, provide the movement threshold and the strategy
// pair, and compute potentials and fields on the records they own. The
// pipeline is generic over the solver's record type so each solver keeps
// its own (minimal) wire format — message sizes, and with them the virtual
// network costs, are exactly those of the records the solver defines.
package coupling

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/costs"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// Method is the solver-specific half of the pipeline. The hooks are called
// in a fixed order by Pipeline.Run — Decompose, MoveThreshold (only in
// steady state with a known movement bound), Exchange (inside the sort
// phase), Compute, then Origin/PosQ during delivery — and must issue their
// vmpi operations symmetrically on every rank.
type Method[T any] interface {
	// Decompose builds one origin-tagged record per input particle (plus any
	// solver-specific duplicates, e.g. ghost copies) and charges its
	// computation cost. Records carry the origin index — the "consecutive
	// numbering" of §III-A — that the pipeline's restore and resort-index
	// stages are built on.
	Decompose(in api.Input) []T
	// MoveThreshold returns the movement bound below which the fast
	// (steady-state) exchange strategy is applicable (§III-B): the
	// per-process cube side for the FMM's merge sort, the subdomain margin
	// for the P2NFFT's neighborhood exchange. Called only when the previous
	// run returned the solver order and the application supplied a bound.
	MoveThreshold() float64
	// Exchange redistributes the records into the solver's domain
	// decomposition, using the fast strategy when fast is set, and reports
	// which strategy actually ran. It runs inside the pipeline's sort phase;
	// any post-exchange bookkeeping that should not count as redistribution
	// time belongs in Compute.
	Exchange(recs []T, fast bool) ([]T, ExchangeInfo)
	// Compute runs the solver's interaction kernels on the exchanged
	// records and returns the locally owned records (ghost duplicates
	// dropped) with their potentials and fields, in record order.
	Compute(recv []T) (own []T, pot, field []float64)
	// Origin returns a record's origin index (redist.Invalid for ghosts).
	Origin(rec T) redist.Index
	// PosQ returns a record's position and charge for the method B output
	// assembly.
	PosQ(rec T) (x, y, z, q float64)
}

// ExchangeInfo reports what an Exchange actually did.
type ExchangeInfo struct {
	// Strategy is the exchange strategy that ran (api.Strategy* names).
	Strategy string
	// Fallback reports that a neighborhood exchange detected an element
	// targeting a rank outside the neighbor set and fell back to the
	// collective backend (a collective decision, identical on every rank).
	Fallback bool
}

// Pipeline drives coupled solver runs through the staged
// Decompose → Compute → Deliver sequence for one solver instance. It owns
// the steady-state tracking across runs; a Pipeline must only be used by
// the goroutine of its communicator's rank.
type Pipeline[T any] struct {
	c *vmpi.Comm
	m Method[T]
	// lastSorted reports whether the previous Run returned the changed
	// order, so the next input is almost sorted and the movement heuristic
	// applies (§III-B).
	lastSorted bool
	last       api.RunStats
}

// New creates a pipeline for the solver method on the communicator.
func New[T any](c *vmpi.Comm, m Method[T]) *Pipeline[T] {
	return &Pipeline[T]{c: c, m: m}
}

// Reset forgets the steady state, e.g. after re-tuning changed the
// decomposition: the next Run must use the general exchange strategy.
func (p *Pipeline[T]) Reset() {
	p.lastSorted = false
}

// Rescale moves the pipeline to a resized communicator (vmpi.Resize) after
// the application redistributed its particles onto the new world. The
// steady state is forgotten: origin indices of the next Run's records are
// numbered in the new world, so the previous world's sorted order means
// nothing to it. The solver method must itself be (re)decomposed for the
// new size before the next Run.
func (p *Pipeline[T]) Rescale(c *vmpi.Comm) {
	p.c = c
	p.lastSorted = false
}

// LastStats returns the instrumentation of the previous Run.
func (p *Pipeline[T]) LastStats() api.RunStats { return p.last }

// Run executes one coupled solver run: decompose and redistribute the
// particles into the solver's domain decomposition, compute, and deliver
// the results with method A (restore) or method B (changed order plus
// resort indices), honoring the capacity contract.
func (p *Pipeline[T]) Run(in api.Input) (api.Output, error) {
	c := p.c
	t0 := c.Time()
	defer func() { c.AddPhase(api.PhaseTotal, c.Time()-t0) }()
	// Decompose: build records with origin numbering.
	recs := p.m.Decompose(in)

	// Movement heuristic of §III-B: the fast strategy applies only when the
	// input is already in solver order (method B steady state) and the
	// global maximum movement is below the solver's threshold.
	fast := false
	if in.MaxMove >= 0 && p.lastSorted {
		maxMove := vmpi.AllreduceVal(c, in.MaxMove, vmpi.Max[float64])
		fast = maxMove < p.m.MoveThreshold()
	}
	var recv []T
	var info ExchangeInfo
	vmpi.Barrier(c) // synchronize so the sort phase measures redistribution, not prior imbalance
	c.Phase(api.PhaseSort, func() {
		recv, info = p.m.Exchange(recs, fast)
	})
	c.Counter(api.CounterStrategyPrefix+info.Strategy, 1)
	if fast {
		c.Counter(api.CounterFastPath, 1)
	}
	if info.Fallback {
		c.Counter(api.CounterFallback, 1)
	}
	var moved, kept, ghosts int
	for _, r := range recv {
		switch o := p.m.Origin(r); {
		case !o.Valid():
			ghosts++
		case o.Rank() == c.Rank():
			kept++
		default:
			moved++
		}
	}
	if moved > 0 {
		c.Counter(api.CounterMoved, float64(moved))
	}
	if kept > 0 {
		c.Counter(api.CounterKept, float64(kept))
	}
	if ghosts > 0 {
		c.Counter(api.CounterGhosts, float64(ghosts))
	}
	p.last = api.RunStats{
		Strategy: info.Strategy, FastPath: fast, Fallback: info.Fallback,
		Moved: moved, Kept: kept, Ghosts: ghosts,
	}

	// Compute: potentials and fields for the owned records.
	own, pot, field := p.m.Compute(recv)

	// Deliver, method A: restore the original order and distribution.
	if !in.Resort {
		out := p.restore(in, own, pot, field)
		p.lastSorted = false
		return out, nil
	}

	// Deliver, method B: check the capacity contract collectively.
	fits := 1
	if len(own) > in.Cap {
		fits = 0
	}
	if vmpi.AllreduceVal(c, fits, vmpi.Min[int]) == 0 {
		// At least one process cannot store the changed distribution:
		// restore the original order instead (§III-B).
		c.Counter(api.CounterCapacityFallback, 1)
		p.last.CapacityFallback = true
		out := p.restore(in, own, pot, field)
		p.lastSorted = false
		return out, nil
	}

	var indices []redist.Index
	vmpi.Barrier(c) // isolate the resort-index creation time from compute imbalance
	c.Phase(api.PhaseResortCreate, func() {
		origins := make([]redist.Index, len(own))
		for i, r := range own {
			origins[i] = p.m.Origin(r)
		}
		indices = redist.InvertIndices(c, origins, in.N)
	})
	nNew := len(own)
	out := api.Output{
		N:        nNew,
		Pos:      make([]float64, 3*nNew),
		Q:        make([]float64, nNew),
		Pot:      pot,
		Field:    field,
		Resorted: true,
		Indices:  indices,
	}
	for i, r := range own {
		x, y, z, q := p.m.PosQ(r)
		out.Pos[3*i], out.Pos[3*i+1], out.Pos[3*i+2] = x, y, z
		out.Q[i] = q
	}
	p.lastSorted = true
	c.Counter(api.CounterResorted, 1)
	p.last.Resorted = true
	return out, nil
}

// restoreRec carries one particle's results back to its initial process in
// method A's restore exchange.
type restoreRec struct {
	Origin     redist.Index
	Pot        float64
	Fx, Fy, Fz float64
}

// restore implements method A: results are sent back to each particle's
// initial process and stored at its initial position, via the fine-grained
// redistribution operation with a distribution function that extracts the
// target process from the origin index (§III-A, Fig. 4).
func (p *Pipeline[T]) restore(in api.Input, own []T, pot, field []float64) api.Output {
	c := p.c
	out := api.Output{
		N:     in.N,
		Pos:   in.Pos,
		Q:     in.Q,
		Pot:   make([]float64, in.N),
		Field: make([]float64, 3*in.N),
	}
	vmpi.Barrier(c) // isolate the restore time from compute imbalance
	c.Phase(api.PhaseRestore, func() {
		results := make([]restoreRec, len(own))
		for i, r := range own {
			results[i] = restoreRec{Origin: p.m.Origin(r), Pot: pot[i],
				Fx: field[3*i], Fy: field[3*i+1], Fz: field[3*i+2]}
		}
		// Explicit plan: the restore routing honors the communicator's
		// memory budget like every other exchange on the pipeline.
		pl := redist.NewPlan(c, len(results), redist.ToRank(func(i int) int {
			return results[i].Origin.Rank()
		}), redist.Options{})
		back := redist.Execute(pl, results)
		pl.Free()
		if len(back) != in.N {
			panic(fmt.Sprintf("coupling: restore received %d results for %d particles", len(back), in.N))
		}
		for _, r := range back {
			i := r.Origin.Pos()
			out.Pot[i] = r.Pot
			out.Field[3*i] = r.Fx
			out.Field[3*i+1] = r.Fy
			out.Field[3*i+2] = r.Fz
		}
		c.Compute(costs.Move * float64(in.N))
	})
	return out
}
