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
	// every k MD steps (the WithResizePolicy contract).
	figResizeStepsPerStage = 2
	figResizeDt            = 0.005
	figResizeSeed          = 11
)

// ResizeDirection is one demand curve: the starting world size and the
// resize targets, consumed one per stage.
type ResizeDirection struct {
	Name     string
	Start    int
	Schedule []int
	// TightCapacity allocates exact-fit arrays after each remap, forcing
	// the method B capacity fallback once the world shrinks.
	TightCapacity bool
}

// FigResizeDirections returns the two demand curves of the figure.
func FigResizeDirections() []ResizeDirection {
	return []ResizeDirection{
		{Name: "grow", Start: 4, Schedule: []int{6, 8}},
		{Name: "shrink", Start: 8, Schedule: []int{6, 4}, TightCapacity: true},
	}
}

// Peak returns the largest world size the direction touches.
func (d ResizeDirection) Peak() int {
	peak := d.Start
	for _, s := range d.Schedule {
		if s > peak {
			peak = s
		}
	}
	return peak
}

// FigResizePoint is one (machine, direction) cell: both strategies' cost.
type FigResizePoint struct {
	Dir ResizeDirection
	// Elastic and Static hold the per-strategy measurements.
	Elastic, Static ResizeCost
}

// ResizeCost is one strategy's outcome.
type ResizeCost struct {
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

// figResizeBody is the elastic driver loop: simulate k steps per stage and
// resize along the schedule. Newly admitted ranks re-enter the body, see a
// non-zero JoinEpoch, and join the in-flight remap with zero particles.
func figResizeBody(s *particle.System, d ResizeDirection) func(c *vmpi.Comm) {
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
			core.WithBox(s.Box), core.WithAccuracy(1e-3), core.WithResort(true),
			core.WithResizePolicy(core.ResizePolicy{
				Every: figResizeStepsPerStage, Sizes: d.Schedule,
			}))
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
		pol := fcs.ResizePolicy()
		for ; ; stage++ {
			for i := 0; i < pol.Every; i++ {
				if err := sim.Step(); err != nil {
					panic(err)
				}
			}
			if stage == len(pol.Sizes) {
				return
			}
			c2, l2 := elastic.Resize(c, sim.L, pol.SizeAt(stage), capf)
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

// figResizeStatic is the over-provisioned baseline: the peak size holds
// for the entire run, no resizes, same total step count.
func figResizeStatic(s *particle.System, steps int) func(c *vmpi.Comm) {
	return func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistRandom, 7)
		fcs, err := core.Init("p2nfft", c,
			core.WithBox(s.Box), core.WithAccuracy(1e-3), core.WithResort(true))
		if err != nil {
			panic(err)
		}
		sim := mdsim.New(c, fcs, l, figResizeDt)
		if err := sim.Init(); err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			if err := sim.Step(); err != nil {
				panic(err)
			}
		}
	}
}

// figResizeCost reduces a run's stats to the figure's cost columns.
func figResizeCost(st *vmpi.Stats) ResizeCost {
	return ResizeCost{
		Time:              st.MaxClock(),
		NodeSeconds:       st.NodeSeconds(),
		Resizes:           st.Epochs - 1,
		CapacityFallbacks: int(st.Events.Counter(api.CounterCapacityFallback)),
	}
}

// FigResizeEval measures one direction on one machine: the elastic run and
// its static peak-provisioned baseline, as independent experiments.
func FigResizeEval(machine Machine, d ResizeDirection) FigResizePoint {
	s := figResizeSystem()
	steps := figResizeStepsPerStage * (len(d.Schedule) + 1)
	vals := runJobs([]func() ResizeCost{
		func() ResizeCost {
			st := vmpi.Run(vmpi.Config{
				Ranks:        d.Start,
				MaxRanks:     d.Peak(),
				Model:        machine.Model(d.Peak()),
				ComputeScale: machine.ComputeScale,
				Workers:      execWorkers,
			}, figResizeBody(s, d))
			recordExecStats(st.Exec)
			return figResizeCost(st)
		},
		func() ResizeCost {
			st := vmpi.Run(vmpi.Config{
				Ranks:        d.Peak(),
				Model:        machine.Model(d.Peak()),
				ComputeScale: machine.ComputeScale,
				Workers:      execWorkers,
			}, figResizeStatic(s, steps))
			recordExecStats(st.Exec)
			return figResizeCost(st)
		},
	})
	return FigResizePoint{Dir: d, Elastic: vals[0], Static: vals[1]}
}

// FigResize sweeps both directions on one machine.
func FigResize(machine Machine) []FigResizePoint {
	dirs := FigResizeDirections()
	out := make([]FigResizePoint, len(dirs))
	for i, d := range dirs {
		out[i] = FigResizeEval(machine, d)
	}
	return out
}

// FigResizeObs replays the grow leg once and returns its span and sample
// events for the Chrome-trace and metrics exports: the vmpi resize barriers (the
// vmpi/resize phase spans), the elastic remap spans, the resize counter,
// and the world-size gauge samples all appear on the exported timeline.
func FigResizeObs() *obs.Log {
	m := JuRoPA()
	d := FigResizeDirections()[0]
	st := vmpi.Run(vmpi.Config{
		Ranks:        d.Start,
		MaxRanks:     d.Peak(),
		Model:        m.Model(d.Peak()),
		ComputeScale: m.ComputeScale,
		Workers:      execWorkers,
		Trace:        true,
	}, figResizeBody(figResizeSystem(), d))
	return spanEvents(st.Events)
}

// sizesPath renders a demand curve like "4 > 6 > 8".
func sizesPath(d ResizeDirection) string {
	parts := []string{fmt.Sprint(d.Start)}
	for _, s := range d.Schedule {
		parts = append(parts, fmt.Sprint(s))
	}
	return strings.Join(parts, " > ")
}

// RenderFigResize prints a Figure R panel.
func RenderFigResize(machine string, pts []FigResizePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure R (%s): elastic resize vs static over-provisioning\n", machine)
	fmt.Fprintf(&b, "(%d particles, p2nfft, method B, resize every %d steps, virtual seconds)\n",
		figResizeParticles, figResizeStepsPerStage)
	fmt.Fprintf(&b, "%-8s %-8s %-12s %12s %14s %8s %6s\n",
		"curve", "strategy", "world sizes", "time", "node-seconds", "resizes", "capfb")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8s %-8s %-12s %s %s %8d %6d\n",
			p.Dir.Name, "elastic", sizesPath(p.Dir),
			fmtSeconds(p.Elastic.Time), fmtSeconds14(p.Elastic.NodeSeconds),
			p.Elastic.Resizes, p.Elastic.CapacityFallbacks)
		fmt.Fprintf(&b, "%-8s %-8s %-12s %s %s %8d %6d\n",
			p.Dir.Name, "static", fmt.Sprint(p.Dir.Peak()),
			fmtSeconds(p.Static.Time), fmtSeconds14(p.Static.NodeSeconds),
			p.Static.Resizes, p.Static.CapacityFallbacks)
		if p.Static.NodeSeconds > 0 {
			fmt.Fprintf(&b, "%-8s node-second savings: %.1f%%\n", p.Dir.Name,
				100*(1-p.Elastic.NodeSeconds/p.Static.NodeSeconds))
		}
	}
	return b.String()
}

// fmtSeconds14 is fmtSeconds padded to the node-seconds column.
func fmtSeconds14(v float64) string {
	return fmt.Sprintf("%14.3e", v)
}
