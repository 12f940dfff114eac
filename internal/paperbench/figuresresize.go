package paperbench

import (
	"fmt"
	"strings"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/mdsim"
	"repro/internal/obs"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

// --- Figure R: elastic world resizing vs static over-provisioning --------
//
// The paper's coupling model fixes the process count for the lifetime of a
// run; this figure evaluates the elastic extension (vmpi.Resize + the
// elastic remap) against the alternative it replaces: statically
// provisioning the peak process count for the whole run. The workload is
// the paper's MD scenario (method B, p2nfft) whose parallelism demand
// changes mid-simulation — grown to the peak in stages, or shrunk from it.
// Two strategies execute the identical physics:
//
//   - elastic: start at the initial size and resize every
//     figResizeStepsPerStage steps along the schedule, remapping the live
//     particle state (positions, charges, velocities, accelerations,
//     solver outputs) onto each new world;
//   - static: hold the peak size from the first step to the last.
//
// Reported are the virtual time to solution (max clock) and the
// node-seconds cost Σ over instances of (retire − admit): what a machine
// allocation actually charges. Elastic resizing trades a little time
// (resize barriers and remaps) for a large allocation saving whenever the
// demand curve is not flat. The shrink leg deliberately allocates
// exact-fit (zero-slack) local arrays after each remap, so method B's
// changed distributions no longer fit and the capacity contract falls back
// to restoring the original order (§III-B) — the "capfb" column counts
// those collectively agreed fallbacks.

const (
	// figResizeParticles keeps the scenario laptop-fast while leaving a few
	// hundred particles per rank at the peak size.
	figResizeParticles = 1500
	// figResizeStepsPerStage is the resize cadence k: the world is resized
	// every k MD steps (figResizeBody's every).
	figResizeStepsPerStage = 2
	figResizeDt            = 0.005
	figResizeSeed          = 11
)

// resizeDirection is one demand curve: the starting world size and the
// resize targets, consumed one per stage.
type resizeDirection struct {
	Name     string
	Start    int
	Schedule []int
	// TightCapacity allocates exact-fit arrays after each remap, forcing
	// the method B capacity fallback once the world shrinks.
	TightCapacity bool
}

// resizeDirections returns the two demand curves of the figure.
func resizeDirections() []resizeDirection {
	return []resizeDirection{
		{Name: "grow", Start: 4, Schedule: []int{6, 8}},
		{Name: "shrink", Start: 8, Schedule: []int{6, 4}, TightCapacity: true},
	}
}

// peak returns the largest world size the direction touches.
func (d resizeDirection) peak() int {
	peak := d.Start
	for _, s := range d.Schedule {
		if s > peak {
			peak = s
		}
	}
	return peak
}

// figResizePoint is one (machine, direction) cell: both strategies' cost.
type figResizePoint struct {
	Dir resizeDirection
	// Elastic and Static hold the per-strategy measurements.
	Elastic, Static resizeCost
}

// resizeCost is one strategy's outcome.
type resizeCost struct {
	// Time is the virtual time to solution (max clock over instances).
	Time float64
	// NodeSeconds is the allocation cost: Σ instance (retire − admit).
	NodeSeconds float64
	// Resizes is the number of completed world resizes.
	Resizes int
	// CapacityFallbacks counts method B runs that restored the original
	// order because some rank could not store the changed distribution.
	CapacityFallbacks int
}

// figResizeSystem builds the shared particle system of the scenario at the
// paper's density.
func figResizeSystem() *particle.System {
	side := Config{Particles: figResizeParticles}.side()
	return particle.SilicaMelt(figResizeParticles, side, true, figResizeSeed)
}

// figResizeBody is the elastic driver loop: simulate every steps per stage
// and resize along the schedule. Newly admitted ranks re-enter the body,
// see a non-zero JoinEpoch, and join the in-flight remap with zero
// particles. With no schedule it is the over-provisioned baseline: one
// stage at the starting size, no resizes.
func figResizeBody(s *particle.System, d resizeDirection, every int) func(c *vmpi.Comm) {
	var capf elastic.Capacity
	if d.TightCapacity {
		capf = func(n int) int { return n }
	}
	return func(c *vmpi.Comm) {
		var l *particle.Local
		stage := c.JoinEpoch()
		if stage == 0 {
			l = particle.Distribute(c, s, particle.DistRandom, 7)
		} else {
			l = elastic.Join(c, s.Box, capf)
		}
		fcs, err := core.Init("p2nfft", c,
			core.WithBox(s.Box), core.WithAccuracy(1e-3), core.WithResort(true))
		if err != nil {
			panic(err)
		}
		sim := mdsim.New(c, fcs, l, figResizeDt)
		if stage == 0 {
			if err := sim.Init(); err != nil {
				panic(err)
			}
		} else if err := sim.Rescale(c, l); err != nil {
			panic(err)
		}
		for ; ; stage++ {
			for i := 0; i < every; i++ {
				if err := sim.Step(); err != nil {
					panic(err)
				}
			}
			if stage == len(d.Schedule) {
				return
			}
			c2, l2 := elastic.Resize(c, sim.L, d.Schedule[stage], capf)
			if c2 == nil {
				return // retired with the shrink
			}
			c = c2
			if err := sim.Rescale(c2, l2); err != nil {
				panic(err)
			}
		}
	}
}

// figResizeCost reduces a run's stats to the figure's cost columns.
func figResizeCost(st *vmpi.Stats) resizeCost {
	return resizeCost{
		Time:              st.MaxClock(),
		NodeSeconds:       st.NodeSeconds(),
		Resizes:           st.Epochs - 1,
		CapacityFallbacks: int(st.Events.Counter(api.CounterCapacityFallback)),
	}
}

// figResizeConfig is the world of a Figure R run on machine m: ranks live
// instances, room for the direction's peak, and a network model sized
// for that peak.
func figResizeConfig(m Machine, d resizeDirection, ranks, workers int) vmpi.Config {
	return vmpi.Config{
		Ranks:        ranks,
		MaxRanks:     d.peak(),
		Model:        m.Model(d.peak()),
		ComputeScale: m.ComputeScale,
		Workers:      workers,
	}
}

// figResize runs both directions on each machine of ms: per direction, the
// elastic run and its static peak-provisioned baseline. All of them are
// independent experiments in one scheduler batch.
func figResize(ms []Machine, workers, jobs int) [][]figResizePoint {
	dirs := resizeDirections()
	vals := onMachines(ms, jobs, func(m Machine) []func() resizeCost {
		var cells []func() resizeCost
		for _, d := range dirs {
			s := figResizeSystem()
			steps := figResizeStepsPerStage * (len(d.Schedule) + 1)
			cells = append(cells,
				func() resizeCost {
					return figResizeCost(vmpi.Run(figResizeConfig(m, d, d.Start, workers),
						figResizeBody(s, d, figResizeStepsPerStage)))
				},
				func() resizeCost {
					return figResizeCost(vmpi.Run(figResizeConfig(m, d, d.peak(), workers),
						figResizeBody(s, resizeDirection{Start: d.peak()}, steps)))
				})
		}
		return cells
	})
	out := make([][]figResizePoint, len(vals))
	for k, v := range vals {
		for i, d := range dirs {
			out[k] = append(out[k], figResizePoint{Dir: d, Elastic: v[2*i], Static: v[2*i+1]})
		}
	}
	return out
}

// figResizeTrace is Figure R's traced cell: the grow leg replayed once,
// with its span and sample events for the Chrome-trace and metrics
// exports. The vmpi resize barriers (the vmpi/resize phase spans), the
// elastic remap spans, the resize counter, and the world-size gauge
// samples all appear on the exported timeline.
func figResizeTrace(workers int) *obs.Log {
	d := resizeDirections()[0]
	cfg := figResizeConfig(JuRoPA(), d, d.Start, workers)
	cfg.Trace = true
	return spanEvents(vmpi.Run(cfg, figResizeBody(figResizeSystem(), d, figResizeStepsPerStage)).Events)
}

// sizesPath renders a demand curve like "4 > 6 > 8".
func sizesPath(d resizeDirection) string {
	parts := []string{fmt.Sprint(d.Start)}
	for _, s := range d.Schedule {
		parts = append(parts, fmt.Sprint(s))
	}
	return strings.Join(parts, " > ")
}

// renderFigResize prints a Figure R panel.
func renderFigResize(machine string, pts []figResizePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure R (%s): elastic resize vs static over-provisioning\n", machine)
	fmt.Fprintf(&b, "(%d particles, p2nfft, method B, resize every %d steps, virtual seconds)\n",
		figResizeParticles, figResizeStepsPerStage)
	fmt.Fprintf(&b, "%-8s %-8s %-12s %12s %14s %8s %6s\n",
		"curve", "strategy", "world sizes", "time", "node-seconds", "resizes", "capfb")
	for _, p := range pts {
		for _, r := range []struct {
			strategy, sizes string
			cost            resizeCost
		}{{"elastic", sizesPath(p.Dir), p.Elastic}, {"static", fmt.Sprint(p.Dir.peak()), p.Static}} {
			fmt.Fprintf(&b, "%-8s %-8s %-12s %s %14.3e %8d %6d\n", p.Dir.Name, r.strategy, r.sizes,
				fmtSeconds(r.cost.Time), r.cost.NodeSeconds, r.cost.Resizes, r.cost.CapacityFallbacks)
		}
		if p.Static.NodeSeconds > 0 {
			fmt.Fprintf(&b, "%-8s node-second savings: %.1f%%\n", p.Dir.Name,
				100*(1-p.Elastic.NodeSeconds/p.Static.NodeSeconds))
		}
	}
	return b.String()
}
