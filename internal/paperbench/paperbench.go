// Package paperbench regenerates the evaluation of the paper: Figures 6–9
// and the summary percentages quoted in §IV-C, plus the repo's extensions
// (Figures 10, R and M), each an entry of the Figures table. Runtimes are
// deterministic virtual seconds from the vmpi cost model; the figures'
// *shape* (which method wins, by what factor, where crossovers fall) is
// the reproduction target, not the absolute numbers of the JuRoPA/Juqueen
// hardware.
package paperbench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mdsim"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

// Machine models one of the paper's two platforms.
type Machine struct {
	Name string
	// Model builds the network model for a rank count.
	Model func(ranks int) netmodel.Model
	// ComputeScale relates the machine's per-core speed to the cost
	// model's baseline (a ~3 GHz Xeon core).
	ComputeScale float64
}

// JuRoPA is the switched-fabric commodity cluster (QDR InfiniBand, Xeon).
func JuRoPA() Machine {
	return Machine{
		Name:         "JuRoPA-like (switched)",
		Model:        func(int) netmodel.Model { return netmodel.NewSwitched() },
		ComputeScale: 1.0,
	}
}

// Juqueen is the Blue Gene/Q: a torus network and slower cores.
func Juqueen() Machine {
	return Machine{
		Name:         "Juqueen-like (torus)",
		Model:        func(ranks int) netmodel.Model { return netmodel.NewTorus(ranks) },
		ComputeScale: 2.5,
	}
}

// Config parameterizes an experiment.
type Config struct {
	// Particles is the global particle count (the paper uses 829440; the
	// default scale keeps laptop runtimes while preserving the shapes).
	Particles int
	// Ranks is the number of virtual MPI ranks.
	Ranks int
	// Steps is the number of MD time steps where applicable.
	Steps int
	// Dt is the time step size (the paper uses 0.01).
	Dt float64
	// Machine selects the platform model.
	Machine Machine
	// Accuracy is the requested solver accuracy.
	Accuracy float64
	// Seed makes the particle system deterministic.
	Seed int64
	// Thermal gives particles initial thermal velocities of this scale.
	// The paper starts from v0 = 0 and runs 1000 steps; thermal velocities
	// compress the same distribution drift into fewer steps for
	// scaled-down runs (0 reproduces the paper's v0 = 0).
	Thermal float64
	// Solver selects the solver method ("fmm" or "p2nfft").
	Solver string
	// Dist is the initial particle distribution.
	Dist particle.Dist
	// Resort selects redistribution method B; TrackMovement additionally
	// feeds the integrator's maximum-movement bound to the solver (§III-B).
	Resort        bool
	TrackMovement bool
	// Trace keeps the run's event list (Result.Events): spans, samples and
	// every point-to-point message — what the comm-matrix and timeline
	// exports read.
	Trace bool
	// Workers fixes the executor's run slots (vmpi.Config.Workers); 0 keeps
	// the engine default, one slot plus host-budget extras. It changes
	// host wall-clock time only: results are identical at any value.
	Workers int
}

// DefaultConfig returns a laptop-scale configuration that reproduces the
// figures' shapes.
func DefaultConfig() Config {
	return Config{
		Particles: 6000,
		Ranks:     8,
		Steps:     8,
		Dt:        0.01,
		Machine:   JuRoPA(),
		Accuracy:  1e-3,
		Seed:      42,
	}
}

// side is the box side length that keeps the paper's particle density
// (829440 ions in a 248³ box, i.e. a mean ion spacing of ~2.66) at
// cfg.Particles.
func (cfg Config) side() float64 {
	const paperSpacing = 2.6567 // 248 / 829440^(1/3)
	return paperSpacing * math.Cbrt(float64(cfg.Particles))
}

// StepStat is one time step's phase breakdown, reduced (max) over ranks.
type StepStat struct {
	Sort    float64 // solver-side particle sorting/redistribution
	Restore float64 // method A: restoring the original order
	Resort  float64 // method B: resorting additional data + index creation
	Total   float64 // total virtual time of the step's solver run (+resort)
}

// phaseSnapshot reads the relevant phase timers; the difference of two
// snapshots is one rank's phase deltas over a step.
func phaseSnapshot(c *vmpi.Comm) StepStat {
	return StepStat{
		Sort:    c.PhaseTime(api.PhaseSort),
		Restore: c.PhaseTime(api.PhaseRestore),
		Resort:  c.PhaseTime(api.PhaseResort) + c.PhaseTime(api.PhaseResortCreate),
		Total:   c.PhaseTime(api.PhaseTotal) + c.PhaseTime(api.PhaseResort),
	}
}

func (a StepStat) minus(b StepStat) StepStat {
	return StepStat{a.Sort - b.Sort, a.Restore - b.Restore, a.Resort - b.Resort, a.Total - b.Total}
}

// rankResult is one rank's contribution: its step series plus a digest of
// its final local particle state and the coupling pipeline's per-run
// instrumentation.
type rankResult struct {
	deltas   []StepStat
	digest   [sha256.Size]byte
	runStats []api.RunStats
}

// reduceSteps max-reduces per-rank step series into StepStats.
func reduceSteps(values []any) []StepStat {
	var out []StepStat
	for _, v := range values {
		steps := v.(rankResult).deltas
		if out == nil {
			out = make([]StepStat, len(steps))
		}
		for i, d := range steps {
			out[i].Sort = math.Max(out[i].Sort, d.Sort)
			out[i].Restore = math.Max(out[i].Restore, d.Restore)
			out[i].Resort = math.Max(out[i].Resort, d.Resort)
			out[i].Total = math.Max(out[i].Total, d.Total)
		}
	}
	return out
}

// combineDigests hashes the per-rank state digests in rank order into one
// hex string identifying the global final particle state.
func combineDigests(values []any) string {
	h := sha256.New()
	for _, v := range values {
		d := v.(rankResult).digest
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stateDigest hashes a rank's complete final particle state: count,
// positions, charges, potentials, fields, and the application-managed
// velocities and accelerations.
func stateDigest(l *particle.Local) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	writeFloats := func(v []float64) {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:], uint64(l.N))
	h.Write(b[:])
	n := l.N
	writeFloats(l.Pos[:3*n])
	writeFloats(l.Q[:n])
	writeFloats(l.Pot[:n])
	writeFloats(l.Field[:3*n])
	writeFloats(l.Vel[:3*n])
	writeFloats(l.Acc[:3*n])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Result carries everything a single benchmark run produces.
type Result struct {
	// Steps is the per-step phase breakdown, max-reduced over ranks. Index
	// 0 is the initial interaction computation (Fig. 3 line 5); indices
	// 1..Steps are the MD time steps.
	Steps []StepStat
	// RunStats is rank 0's per-step coupling instrumentation: which
	// exchange strategy each solver run actually used, whether the movement
	// heuristic's fast path applied, and whether a neighborhood exchange or
	// the method B capacity contract fell back. Entry i describes the
	// solver run behind Steps[i].
	RunStats []api.RunStats
	// Digest is a hex digest of the final particle state (positions,
	// charges, potentials, fields, velocities, and accelerations of every
	// rank, in rank order). The determinism tests use it to assert that
	// host-level worker-pool parallelism leaves the physics bit-identical.
	Digest string
	// Events is the run's observability log: counter totals and gauge
	// maxima always; under Config.Trace also the event list (phase spans,
	// collectives, samples, every point-to-point message) the exporters
	// (obs.WriteChromeTrace, obs.WriteMetrics) consume.
	Events *obs.Log
}

// runMarker names the gauge event Run emits on every rank immediately
// before each solver run (the initial solve and each MD step), so event-log
// consumers can slice a run's timeline per step. Its value is the step
// index, 0 being the initial solve.
const runMarker = "paperbench/run"

// Run executes the benchmark described by cfg. It is the single entry
// point behind Figures 6–9, the wall-clock benchmarks, and the
// observability exports: Steps == 0 measures exactly one solver run (the
// Fig. 6 configuration), Steps > 0 runs the MD loop of Figs. 7–9.
func Run(cfg Config) (Result, error) {
	if cfg.Particles <= 0 {
		return Result{}, fmt.Errorf("paperbench: particle count %d must be positive", cfg.Particles)
	}
	if cfg.Ranks <= 0 {
		return Result{}, fmt.Errorf("paperbench: rank count %d must be positive", cfg.Ranks)
	}
	if cfg.Machine.Model == nil {
		return Result{}, fmt.Errorf("paperbench: config has no machine model")
	}
	if !slices.Contains(core.Methods(), cfg.Solver) {
		return Result{}, fmt.Errorf("paperbench: %w %q (have %v)", core.ErrUnknownMethod, cfg.Solver, core.Methods())
	}

	s := particle.SilicaMelt(cfg.Particles, cfg.side(), true, cfg.Seed)
	if cfg.Thermal > 0 {
		particle.Thermalize(s, cfg.Thermal, cfg.Seed+2)
	}
	st := vmpi.Run(vmpi.Config{
		Ranks:        cfg.Ranks,
		Model:        cfg.Machine.Model(cfg.Ranks),
		ComputeScale: cfg.Machine.ComputeScale,
		Trace:        cfg.Trace,
		Workers:      cfg.Workers,
	}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, cfg.Dist, cfg.Seed+1)
		h, err := core.Init(cfg.Solver, c,
			core.WithBox(s.Box),
			core.WithAccuracy(cfg.Accuracy),
			core.WithResort(cfg.Resort),
		)
		if err != nil {
			panic(err)
		}
		sim := mdsim.New(c, h, l, cfg.Dt)
		sim.TrackMovement = cfg.TrackMovement

		var deltas []StepStat
		var runStats []api.RunStats
		capture := func() {
			if rs, ok := sim.LastRunStats(); ok {
				runStats = append(runStats, rs)
			}
		}
		prev := phaseSnapshot(c)
		c.Gauge(runMarker, 0)
		if err := sim.Init(); err != nil {
			panic(err)
		}
		cur := phaseSnapshot(c)
		deltas = append(deltas, cur.minus(prev))
		prev = cur
		capture()
		for i := 0; i < cfg.Steps; i++ {
			c.Gauge(runMarker, float64(i+1))
			if err := sim.Step(); err != nil {
				panic(err)
			}
			cur = phaseSnapshot(c)
			deltas = append(deltas, cur.minus(prev))
			prev = cur
			capture()
		}
		c.SetResult(rankResult{deltas: deltas, digest: stateDigest(l), runStats: runStats})
	})
	return Result{
		Steps: reduceSteps(st.Values),
		// The strategy decisions are collective (identical on every rank),
		// so rank 0's view suffices; only the Moved/Kept/Ghosts element
		// counts are rank-local.
		RunStats: st.Values[0].(rankResult).runStats,
		Digest:   combineDigests(st.Values),
		Events:   st.Events,
	}, nil
}

// obsConfig returns the canonical observability run: the Fig. 9 torus
// steady state (p2nfft on the Juqueen-like machine, process-grid
// distribution, method B with movement tracking) with message tracing
// enabled. The golden trace/metrics exports and the determinism tests all
// derive from this one configuration.
func obsConfig() Config {
	cfg := DefaultConfig()
	cfg.Ranks = 16
	cfg.Steps = 5
	cfg.Dt = 0.025
	cfg.Thermal = 2.5
	cfg.Machine = Juqueen()
	cfg.Solver = "p2nfft"
	cfg.Dist = particle.DistGrid
	cfg.Resort = true
	cfg.TrackMovement = true
	cfg.Trace = true
	return cfg
}

// spanEvents drops the point-to-point message events of a traced log: the
// resize and memory figures export span-and-sample timelines.
func spanEvents(l *obs.Log) *obs.Log {
	return l.Select(func(e obs.Event) bool {
		return e.Kind != obs.KindSend && e.Kind != obs.KindArrive
	})
}

// solvers lists the two solver methods in presentation order.
func solvers() []string { return []string{"fmm", "p2nfft"} }

// fmtSeconds renders a virtual time like the paper's log axes.
func fmtSeconds(v float64) string {
	return fmt.Sprintf("%10.3e", v)
}
