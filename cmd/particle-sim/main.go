// Command particle-sim is the generic benchmark application of the paper
// (§IV): a particle dynamics simulation on a virtual MPI machine, coupled
// to a long-range solver through the core (fcs-style) library interface.
//
// Example:
//
//	particle-sim -solver fmm -method B -dist random -n 6000 -ranks 8 -steps 20
//	particle-sim -solver p2nfft -method Bmv -machine torus -steps 50
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mdsim"
	"repro/internal/netmodel"
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
		file     = flag.String("file", "", "read the particle system from this file instead of generating")
		trace    = flag.Bool("trace", false, "record every message and print a per-phase communication summary")
	)
	flag.Parse()

	var dist particle.Dist
	switch *distName {
	case "single":
		dist = particle.DistSingle
	case "random":
		dist = particle.DistRandom
	case "grid":
		dist = particle.DistGrid
	default:
		fmt.Fprintf(os.Stderr, "particle-sim: unknown distribution %q\n", *distName)
		os.Exit(2)
	}
	resort := *method == "B" || *method == "Bmv"
	track := *method == "Bmv"
	if !resort && *method != "A" {
		fmt.Fprintf(os.Stderr, "particle-sim: unknown method %q\n", *method)
		os.Exit(2)
	}

	var s *particle.System
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "particle-sim: %v\n", err)
			os.Exit(1)
		}
		s, err = particle.ReadText(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "particle-sim: %v\n", err)
			os.Exit(1)
		}
	} else {
		sideV := *side
		if sideV == 0 {
			sideV = 2.6567 * math.Cbrt(float64(*n))
		}
		s = particle.SilicaMelt(*n, sideV, true, *seed)
		if *thermal > 0 {
			particle.Thermalize(s, *thermal, *seed+2)
		}
	}

	var model netmodel.Model
	scale := 1.0
	switch *machine {
	case "switched":
		model = netmodel.NewSwitched()
	case "torus":
		model = netmodel.NewTorus(*ranks)
		scale = 2.5
	default:
		fmt.Fprintf(os.Stderr, "particle-sim: unknown machine %q\n", *machine)
		os.Exit(2)
	}

	fmt.Printf("particle-sim: %d particles, box %.4g, %d ranks (%s), solver %s, method %s, %d steps, dt %g\n",
		s.N, s.Box.Lengths()[0], *ranks, *machine, *solver, *method, *steps, *dt)

	st := vmpi.Run(vmpi.Config{Ranks: *ranks, Model: model, ComputeScale: scale, Trace: *trace}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, dist, *seed+1)
		h, err := core.Init(*solver, c,
			core.WithBox(s.Box),
			core.WithAccuracy(*accuracy),
			core.WithResort(resort),
		)
		if err != nil {
			panic(err)
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
