// Command particle-sim is the generic benchmark application of the paper
// (§IV): a particle dynamics simulation on a virtual MPI machine, coupled
// to a long-range solver through the core (fcs-style) library interface.
//
// Example:
//
//	particle-sim -solver fmm -method B -dist random -n 6000 -ranks 8 -steps 20
//	particle-sim -solver p2nfft -method Bmv -machine torus -steps 50
//
// Bad input (-n or -ranks below 1, -steps below 0, -accuracy outside
// (0, 1), -dt not above 0, a negative -side, an unknown name) exits with
// status 2 and a one-line message.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mdsim"
	"repro/internal/paperbench"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

func main() {
	var (
		solver   = flag.String("solver", "fmm", "solver method: fmm or p2nfft")
		method   = flag.String("method", "A", "redistribution method: A (restore), B (resort), Bmv (B + max movement)")
		distName = flag.String("dist", "grid", "initial distribution: single, random, grid")
		n        = flag.Int("n", 6000, "global particle count (rounded to an even lattice cube)")
		side     = flag.Float64("side", 0, "box side length (0 = paper density)")
		ranks    = flag.Int("ranks", 8, "virtual MPI ranks")
		steps    = flag.Int("steps", 10, "MD time steps")
		dt       = flag.Float64("dt", 0.01, "time step size")
		thermal  = flag.Float64("thermal", 0, "initial thermal velocity scale")
		accuracy = flag.Float64("accuracy", 1e-3, "requested relative accuracy")
		machine  = flag.String("machine", "switched", "network model: switched or torus")
		seed     = flag.Int64("seed", 42, "particle system seed")
		trace    = flag.Bool("trace", false, "record every message and print a per-phase communication summary")
	)
	flag.Parse()
	if err := checkFlags(*solver, *n, *ranks, *steps, *dt, *side, *accuracy); err != nil {
		fail(err)
	}

	var dist particle.Dist
	switch *distName {
	case "single":
		dist = particle.DistSingle
	case "random":
		dist = particle.DistRandom
	case "grid":
		dist = particle.DistGrid
	default:
		fail(fmt.Errorf("unknown distribution %q", *distName))
	}
	resort := *method == "B" || *method == "Bmv"
	track := *method == "Bmv"
	if !resort && *method != "A" {
		fail(fmt.Errorf("unknown method %q", *method))
	}

	sideV := *side
	if sideV == 0 {
		sideV = 2.6567 * math.Cbrt(float64(*n))
	}
	s := particle.SilicaMelt(*n, sideV, true, *seed)
	if *thermal > 0 {
		particle.Thermalize(s, *thermal, *seed+2)
	}

	var m paperbench.Machine
	switch *machine {
	case "switched":
		m = paperbench.JuRoPA()
	case "torus":
		m = paperbench.Juqueen()
	default:
		fail(fmt.Errorf("unknown machine %q", *machine))
	}

	fmt.Printf("particle-sim: %d particles, box %.4g, %d ranks (%s), solver %s, method %s, %d steps, dt %g\n",
		s.N, s.Box.Lengths()[0], *ranks, *machine, *solver, *method, *steps, *dt)

	cfg := vmpi.Config{Ranks: *ranks, Model: m.Model(*ranks), ComputeScale: m.ComputeScale, Trace: *trace}
	st := vmpi.Run(cfg, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, dist, *seed+1)
		h, err := core.Init(*solver, c,
			core.WithBox(s.Box),
			core.WithAccuracy(*accuracy),
			core.WithResort(resort),
		)
		if err != nil {
			// Init checks its options locally, so every rank fails alike.
			c.SetResult(err)
			return
		}
		defer h.Destroy()
		sim := mdsim.New(c, h, l, *dt)
		sim.TrackMovement = track
		if err := sim.Init(); err != nil {
			panic(err)
		}
		k0, u0 := sim.Energies()
		for i := 0; i < *steps; i++ {
			if err := sim.Step(); err != nil {
				panic(err)
			}
		}
		k1, u1 := sim.Energies()
		if c.Rank() == 0 {
			c.SetResult([4]float64{k0, u0, k1, u1})
		}
	})

	if err, ok := st.Values[0].(error); ok {
		fail(err)
	}
	e := st.Values[0].([4]float64)
	fmt.Printf("energy: initial K=%.6g U=%.6g E=%.6g; final K=%.6g U=%.6g E=%.6g\n",
		e[0], e[1], e[0]+e[1], e[2], e[3], e[2]+e[3])
	fmt.Printf("virtual runtime: %.4g s (max over ranks)\n", st.MaxClock())
	fmt.Printf("phase breakdown (max over ranks, virtual seconds):\n")
	for _, name := range []string{api.PhaseSort, api.PhaseRestore, api.PhaseResortCreate,
		api.PhaseResort, api.PhaseNear, api.PhaseFar, api.PhaseTotal} {
		fmt.Printf("  %-14s %.4e\n", name, st.MaxPhase(name))
	}
	fmt.Printf("communication: %d messages, %.3g MB total\n",
		st.TotalMessages(), float64(st.TotalBytes())/1e6)

	if *trace {
		ev := st.Events
		fmt.Printf("\ncommunication by phase (traced):\n")
		fmt.Printf("  %-14s %10s %12s %8s\n", "phase", "messages", "bytes", "pairs")
		for _, ph := range []string{api.PhaseSort, api.PhaseRestore, api.PhaseResortCreate,
			api.PhaseResort, api.PhaseNear, api.PhaseFar} {
			if ev.MessageCount(ph) == 0 {
				continue
			}
			fmt.Printf("  %-14s %10d %12d %8d\n", ph, ev.MessageCount(ph), ev.TotalBytes(ph), ev.ActivePairs(ph))
		}
		fmt.Printf("  total active pairs: %d of %d possible\n",
			ev.ActivePairs(""), *ranks*(*ranks-1))
	}
}

// checkFlags turns away the flag values no simulation can run with.
func checkFlags(solver string, n, ranks, steps int, dt, side, accuracy float64) error {
	switch {
	case !slices.Contains(core.Methods(), solver):
		return fmt.Errorf("unknown solver %q (have %v)", solver, core.Methods())
	case n < 1:
		return fmt.Errorf("-n must be at least 1, got %d", n)
	case ranks < 1:
		return fmt.Errorf("-ranks must be at least 1, got %d", ranks)
	case steps < 0:
		return fmt.Errorf("-steps must not be negative, got %d", steps)
	case !(dt > 0) || math.IsInf(dt, 0):
		return fmt.Errorf("-dt must be a positive number, got %g", dt)
	case !(side >= 0) || math.IsInf(side, 0):
		return fmt.Errorf("-side must be 0 or a positive number, got %g", side)
	case !(accuracy > 0 && accuracy < 1):
		return fmt.Errorf("-accuracy must lie in (0, 1), got %g", accuracy)
	}
	return nil
}

// fail reports err on one line and exits with status 2.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "particle-sim: %v\n", err)
	os.Exit(2)
}
