// Package api defines the types shared between the coupling library
// (internal/core) and the solver implementations (internal/fmm,
// internal/pnfft): the per-run particle input/output contract, including
// the method B resort machinery of the paper (§III-B).
package api

import (
	"repro/internal/particle"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// Input is one process's particle data for a solver run, mirroring the
// fcs_run argument list: local positions and charges, the local particle
// count, and the maximum number of particles the local arrays can store.
type Input struct {
	// N is the number of local particles; Cap the local array capacity.
	N, Cap int
	// Pos (length 3N) and Q (length N) are the particle positions and
	// charges. Solvers must not retain the slices beyond the call.
	Pos, Q []float64
	// MaxMove is the maximum displacement of any particle since the
	// previous Run, if the application knows it (paper §III-B); a negative
	// value means unknown. Collective: every rank passes its local maximum,
	// solvers reduce it globally.
	MaxMove float64
	// Resort selects method B: the solver returns its changed particle
	// order and distribution together with resort indices, instead of
	// restoring the original order (method A).
	Resort bool
}

// Output is the result of a solver run.
type Output struct {
	// N is the local particle count of the returned data: equal to the
	// input count unless Resorted.
	N int
	// Pos and Q echo the particle data. For method A they are the original
	// input; for method B they are in the solver's changed order and
	// distribution.
	Pos, Q []float64
	// Pot (length N) and Field (length 3N) are the calculated potentials
	// and field values, ordered consistently with Pos/Q.
	Pot, Field []float64
	// Resorted reports whether the changed order was returned. It is false
	// when method A was used, and also when method B was requested but some
	// process's arrays were too small, in which case the original order
	// was restored (the library-interface contract of §III-B).
	Resorted bool
	// Indices are the resort indices for the original local particles:
	// Indices[i] gives the rank and position where original particle i now
	// lives. Only set when Resorted.
	Indices []redist.Index
}

// Exchange strategy names reported in RunStats.Strategy: the FMM's two
// parallel sorts and the P2NFFT's two redistribution backends (§III).
const (
	StrategyPartition    = "partition"
	StrategyMerge        = "merge"
	StrategyAlltoall     = "alltoall"
	StrategyNeighborhood = "neighborhood"
)

// RunStats is the coupling pipeline's instrumentation of one solver run:
// which redistribution strategy actually ran and what the particles did.
// All fields are identical on every rank except the element counts, which
// are per-rank.
type RunStats struct {
	// Strategy is the exchange strategy that ran in the sort phase (one of
	// the Strategy* names).
	Strategy string
	// FastPath reports that the §III-B movement heuristic selected the
	// steady-state strategy (merge sort / neighborhood exchange).
	FastPath bool
	// Fallback reports that a neighborhood exchange found an element
	// targeting a rank outside the neighbor set and fell back to the
	// collective backend (in which case Strategy is StrategyAlltoall).
	Fallback bool
	// Moved and Kept count the received records that crossed a process
	// boundary vs. stayed local; Ghosts counts received duplicates without
	// an origin (P2NFFT ghost particles).
	Moved, Kept, Ghosts int
	// Resorted reports whether the run returned the changed order (method
	// B succeeded); CapacityFallback that method B was requested but some
	// process's arrays were too small, so the original order was restored.
	Resorted         bool
	CapacityFallback bool
}

// Counter names the coupling pipeline emits into the observability stream
// during each run, mirroring the RunStats fields.
const (
	// CounterStrategyPrefix prefixes the strategy counter: the full name is
	// CounterStrategyPrefix + the Strategy* name that ran in the sort phase.
	CounterStrategyPrefix = "coupling/strategy/"
	// CounterFastPath marks that the §III-B movement heuristic selected the
	// steady-state strategy.
	CounterFastPath = "coupling/fast-path"
	// CounterFallback marks a neighborhood exchange falling back to the
	// collective backend.
	CounterFallback = "coupling/fallback"
	// CounterMoved/CounterKept/CounterGhosts count the received records per
	// rank (crossed a boundary / stayed local / origin-less duplicates).
	CounterMoved  = "coupling/moved"
	CounterKept   = "coupling/kept"
	CounterGhosts = "coupling/ghosts"
	// CounterResorted marks a run that returned the changed order (method B
	// succeeded); CounterCapacityFallback one where method B was requested
	// but the capacity contract forced a restore.
	CounterResorted         = "coupling/resorted"
	CounterCapacityFallback = "coupling/capacity-fallback"
)

// StatsSource is optionally implemented by solvers that expose the
// coupling pipeline's per-run instrumentation.
type StatsSource interface {
	// LastRunStats returns the statistics of the previous Run.
	LastRunStats() RunStats
}

// Solver is a long-range interaction solver bound to a communicator and a
// particle system box.
type Solver interface {
	// Name identifies the solver method ("fmm", "p2nfft").
	Name() string
	// Tune performs the optional tuning step with a representative particle
	// configuration (fcs_tune).
	Tune(in Input) error
	// Run computes potentials and fields (fcs_run).
	Run(in Input) (Output, error)
}

// Factory builds a solver instance for a communicator, box, and requested
// relative accuracy.
type Factory func(c *vmpi.Comm, box particle.Box, accuracy float64) Solver

// Phase timer names used by the solvers (vmpi.Comm.Phase), so that the
// benchmark harness can report the same breakdown as the paper's figures.
const (
	// PhaseSort is the particle sorting/redistribution into the solver's
	// domain decomposition.
	PhaseSort = "sort"
	// PhaseRestore is method A's restoring of the original particle order
	// and distribution.
	PhaseRestore = "restore"
	// PhaseResortCreate is method B's creation of resort indices inside
	// the solver.
	PhaseResortCreate = "resort-create"
	// PhaseResort is the application-side resorting of additional particle
	// data (velocities, accelerations) via the core resort functions.
	PhaseResort = "resort"
	// PhaseNear and PhaseFar are the solver compute phases.
	PhaseNear = "near"
	// PhaseFar is the far-field (multipole / Fourier) compute phase,
	// including its communication.
	PhaseFar = "far"
	// PhaseTotal is the whole solver run including data handling.
	PhaseTotal = "total"
)
