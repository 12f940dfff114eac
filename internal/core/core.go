// Package core is the coupling library — the reproduction's equivalent of
// the ScaFaCoS library interface (paper §II-A). It assembles
// application-independent solvers for long range interactions (FMM,
// P2NFFT) behind a unique interface and implements the two particle data
// redistribution methods of §III:
//
//   - Method A (default): every solver run restores the original
//     (application-specific) particle order and distribution. The
//     application's data handling is untouched, but each run pays the full
//     redistribution back to the application's layout.
//   - Method B (WithResort(true)): solver runs return the changed
//     (solver-specific) order and distribution. The application adapts its
//     additional per-particle data (velocities, accelerations, ...) with
//     ResortFloats/ResortInts, driven by the resort indices the solver
//     created. A query (ResortAvailable) reports whether the change
//     actually happened — if any process's arrays were too small, the
//     library restored the original order instead.
//
// The handle mirrors the fcs_* call sequence: Init (with options) → Tune →
// Run (repeatedly) → Destroy. On an elastic world, Rescale moves a handle
// to a resized communicator between runs.
package core

import (
	"fmt"
	"sort"

	"repro/internal/api"
	"repro/internal/fmm"
	"repro/internal/particle"
	"repro/internal/pnfft"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// registry maps solver method names to factories, like the string
// parameter of fcs_init.
var registry = map[string]api.Factory{
	"fmm":    fmm.NewSolver,
	"p2nfft": pnfft.NewSolver,
}

// Methods returns the available solver method names in sorted order.
func Methods() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FCS is a handle representing an instance of a specific solver within a
// particle code (the generic FCS handle of §II-A).
type FCS struct {
	comm    *vmpi.Comm
	factory api.Factory

	box      particle.Box
	boxSet   bool
	accuracy float64

	solver api.Solver
	tuned  bool

	resortEnabled bool
	maxMove       float64

	// State of the last Run, backing the resort API.
	lastResorted bool
	lastIndices  []redist.Index
	lastNOrig    int
	lastNNew     int
}

// Init creates a new solver instance of the named method on the
// communicator (fcs_init), configured by functional options (WithBox,
// WithAccuracy, WithResort). Options are validated eagerly: Init returns
// the first option error. Every rank of the communicator must call it
// identically.
func Init(method string, comm *vmpi.Comm, opts ...Option) (*FCS, error) {
	f, ok := registry[method]
	if !ok {
		return nil, fmt.Errorf("core: %w %q (have %v)", ErrUnknownMethod, method, Methods())
	}
	h := &FCS{
		comm:     comm,
		factory:  f,
		accuracy: 1e-3,
		maxMove:  -1,
	}
	for _, opt := range opts {
		if err := opt(h); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Rescale moves the handle to a resized communicator (vmpi.Resize). The
// solver instance is dropped — its domain decomposition and tuning are
// bound to the old world size — and the resort state of the previous Run
// is cleared, since its indices reference ranks that may have retired.
// Every rank of the new world must call Rescale (newly admitted ranks Init
// a fresh handle instead) and then Tune collectively before the next Run.
func (h *FCS) Rescale(c *vmpi.Comm) {
	h.comm = c
	h.solver = nil
	h.tuned = false
	h.lastResorted = false
	h.lastIndices = nil
	h.lastNOrig, h.lastNNew = 0, 0
}

// ResortEnabled reports the current method selection.
func (h *FCS) ResortEnabled() bool { return h.resortEnabled }

// SetMaxParticleMove passes the application's bound on the maximum particle
// displacement since the previous Run (paper §III-B). It enables the
// merge-based parallel sorting in the FMM solver and the neighborhood
// communication in the P2NFFT solver. A negative value means unknown; the
// hint is consumed by the next Run.
func (h *FCS) SetMaxParticleMove(d float64) { h.maxMove = d }

func (h *FCS) ensureSolver() error {
	if !h.boxSet {
		return fmt.Errorf("core: %w: the box must be set (WithBox) before Tune/Run", ErrNotConfigured)
	}
	if h.solver == nil {
		h.solver = h.factory(h.comm, h.box, h.accuracy)
	}
	return nil
}

// Tune performs the optional tuning step (fcs_tune) with the current local
// particles. The tuning results remain valid as long as the particle
// positions do not change "too much".
func (h *FCS) Tune(n int, pos, q []float64) error {
	if err := h.ensureSolver(); err != nil {
		return err
	}
	in := api.Input{N: n, Cap: n, Pos: pos, Q: q, MaxMove: -1}
	if err := h.solver.Tune(in); err != nil {
		return err
	}
	h.tuned = true
	return nil
}

// Run computes the long range interactions (fcs_run).
//
// n points at the local particle count and is updated when the particle
// order and distribution changed (method B). capacity is the maximum
// number of particles the local arrays can store. pos, q, pot, and field
// must have capacity*3, capacity, capacity, and capacity*3 elements; on
// return the first *n entries are valid. With method A (or after a
// capacity fallback) pos and q are unchanged and pot/field follow the
// original order. ResortAvailable reports which case occurred.
func (h *FCS) Run(n *int, capacity int, pos, q, pot, field []float64) error {
	if err := h.ensureSolver(); err != nil {
		return err
	}
	if *n > capacity {
		return fmt.Errorf("core: %w: local count %d exceeds capacity %d", ErrCapacityTooSmall, *n, capacity)
	}
	if len(pos) < 3*capacity || len(q) < capacity || len(pot) < capacity || len(field) < 3*capacity {
		return fmt.Errorf("core: %w: array lengths below capacity %d", ErrBadLength, capacity)
	}
	in := api.Input{
		N: *n, Cap: capacity,
		Pos: pos[:3**n], Q: q[:*n],
		MaxMove: h.maxMove,
		Resort:  h.resortEnabled,
	}
	h.maxMove = -1 // the hint applies to a single run
	out, err := h.solver.Run(in)
	if err != nil {
		return err
	}
	h.lastResorted = out.Resorted
	h.lastIndices = out.Indices
	h.lastNOrig = in.N
	h.lastNNew = out.N
	if out.Resorted {
		if out.N > capacity {
			return fmt.Errorf("core: %w: solver returned %d particles beyond capacity %d", ErrCapacityTooSmall, out.N, capacity)
		}
		copy(pos, out.Pos[:3*out.N])
		copy(q, out.Q[:out.N])
		*n = out.N
	}
	copy(pot, out.Pot[:out.N])
	copy(field, out.Field[:3*out.N])
	return nil
}

// ResortAvailable reports whether the previous Run returned the changed
// particle order and distribution, i.e. whether the resort functions can
// and must be used to adapt additional particle data (fcs_get_resort_availability).
func (h *FCS) ResortAvailable() bool { return h.lastResorted }

// LastRunStats returns the coupling pipeline's instrumentation of the
// previous Run — which redistribution strategy actually ran, whether the
// movement heuristic's fast path was taken, whether a neighborhood
// exchange fell back — when the solver exposes it. The second return value
// is false before the first Run or for solvers without instrumentation.
func (h *FCS) LastRunStats() (api.RunStats, bool) {
	if src, ok := h.solver.(api.StatsSource); ok {
		return src.LastRunStats(), true
	}
	return api.RunStats{}, false
}

// validateResort checks the resort arguments before any communication:
// the stride must be positive and the data must hold exactly stride values
// per original local particle of the previous Run. Catching both here
// returns a clean error instead of corrupting data or panicking deep
// inside the redist exchange.
func (h *FCS) validateResort(dataLen, stride int) error {
	if !h.lastResorted {
		return fmt.Errorf("core: %w (method A or capacity fallback)", ErrResortUnavailable)
	}
	if stride <= 0 {
		return fmt.Errorf("core: %w: stride %d must be positive", ErrBadStride, stride)
	}
	if dataLen != stride*h.lastNOrig {
		return fmt.Errorf("core: %w: resort data length %d != stride %d * %d original particles",
			ErrBadLength, dataLen, stride, h.lastNOrig)
	}
	return nil
}

// ResortFloats adapts additional per-particle float64 data (stride values
// per particle, in the original order of the previous Run's input) to the
// changed particle order and distribution (fcs_resort_floats). It must be
// called collectively. The returned slice has lastN*stride entries.
func (h *FCS) ResortFloats(data []float64, stride int) ([]float64, error) {
	if err := h.validateResort(len(data), stride); err != nil {
		return nil, err
	}
	var out []float64
	vmpi.Barrier(h.comm) // isolate the resort time from prior imbalance
	h.comm.Phase(api.PhaseResort, func() {
		out = redist.ResortFloats(h.comm, data, stride, h.lastIndices, h.lastNNew)
	})
	return out, nil
}

// ResortInts is ResortFloats for int64 data (fcs_resort_ints).
func (h *FCS) ResortInts(data []int64, stride int) ([]int64, error) {
	if err := h.validateResort(len(data), stride); err != nil {
		return nil, err
	}
	var out []int64
	vmpi.Barrier(h.comm) // isolate the resort time from prior imbalance
	h.comm.Phase(api.PhaseResort, func() {
		out = redist.ResortInts(h.comm, data, stride, h.lastIndices, h.lastNNew)
	})
	return out, nil
}

// Destroy releases the solver instance (fcs_destroy).
func (h *FCS) Destroy() {
	h.solver = nil
	h.lastIndices = nil
	h.boxSet = false
}
