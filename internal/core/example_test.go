package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

// Example computes the Coulomb potentials of a small ionic system with the
// coupling library, following the fcs call sequence of the paper's §II-A:
// Init (with options) → Tune → Run → Destroy.
func Example() {
	// A melting-silica-like ionic system at the paper's density.
	system := particle.SilicaMelt(1000, 26.6, true, 1)
	fmt.Printf("system: %d ions in a %.4g^3 periodic box\n", system.N, system.Box.Lengths()[0])

	// Run on a virtual machine of 4 MPI ranks.
	st := vmpi.Run(vmpi.Config{Ranks: 4}, func(c *vmpi.Comm) {
		// Each rank takes its share (here: a uniformly random distribution).
		local := particle.Distribute(c, system, particle.DistRandom, 7)

		// fcs_init: create a solver instance ("fmm" and "p2nfft" are
		// available), configured with functional options — the box
		// (fcs_set_common) and the requested accuracy are validated here.
		handle, err := core.Init("p2nfft", c,
			core.WithBox(system.Box),
			core.WithAccuracy(1e-3),
		)
		if err != nil {
			panic(err)
		}
		defer handle.Destroy()

		// fcs_tune: optional tuning with the current particles.
		if err := handle.Tune(local.N, local.ActivePos(), local.ActiveQ()); err != nil {
			panic(err)
		}

		// fcs_run: compute potentials and fields.
		n := local.N
		if err := handle.Run(&n, local.Cap, local.Pos, local.Q, local.Pot, local.Field); err != nil {
			panic(err)
		}

		// The electrostatic energy is ½ Σ qᵢφᵢ; reduce it globally.
		u := 0.0
		for i := 0; i < n; i++ {
			u += 0.5 * local.Q[i] * local.Pot[i]
		}
		total := vmpi.AllreduceVal(c, u, vmpi.Sum[float64])
		if c.Rank() == 0 {
			c.SetResult(total)
		}
	})

	fmt.Printf("electrostatic energy: %.6f\n", st.Values[0].(float64))
	fmt.Printf("virtual runtime: %.3g s on 4 ranks\n", st.MaxClock())
	// Output:
	// system: 1000 ions in a 26.6^3 periodic box
	// electrostatic energy: -327.012992
	// virtual runtime: 0.00941 s on 4 ranks
}

// ExampleFCS_ResortInts shows the coupling currency of method B: the 64-bit
// resort indices (rank<<32 | position) that solvers create so an
// application can adapt its own per-particle data to the solver's changed
// particle order and distribution (paper §III-B, Fig. 5).
//
// Each particle carries a payload the solver knows nothing about (its global
// id and a synthetic "age"); after a run with resorting enabled, the payload
// is moved with ResortInts/ResortFloats and still lines up with the
// particle positions.
func ExampleFCS_ResortInts() {
	system := particle.SilicaMelt(512, 21.3, true, 5)
	fmt.Printf("resort-indices: %d ions on 4 ranks\n", system.N)

	st := vmpi.Run(vmpi.Config{Ranks: 4}, func(c *vmpi.Comm) {
		local := particle.Distribute(c, system, particle.DistRandom, 3)

		ids := make([]int64, local.N)
		age := make([]float64, local.N)
		for i := 0; i < local.N; i++ {
			ids[i] = globalID(system, local.Pos[3*i:3*i+3])
			age[i] = float64(ids[i]) * 0.5
		}

		handle, err := core.Init("fmm", c,
			core.WithBox(system.Box),
			core.WithAccuracy(1e-2),
			core.WithResort(true),
		)
		if err != nil {
			panic(err)
		}
		defer handle.Destroy()
		if err := handle.Tune(local.N, local.ActivePos(), local.ActiveQ()); err != nil {
			panic(err)
		}
		n := local.N
		if err := handle.Run(&n, local.Cap, local.Pos, local.Q, local.Pot, local.Field); err != nil {
			panic(err)
		}
		if !handle.ResortAvailable() {
			panic("expected the changed particle order")
		}

		// Move the application data into the solver's order.
		movedIDs, err := handle.ResortInts(ids, 1)
		if err != nil {
			panic(err)
		}
		movedAge, err := handle.ResortFloats(age, 1)
		if err != nil {
			panic(err)
		}

		// The id at each new position must match the particle there.
		mismatches := 0
		for i := 0; i < n; i++ {
			want := globalID(system, local.Pos[3*i:3*i+3])
			if movedIDs[i] != want || movedAge[i] != float64(want)*0.5 {
				mismatches++
			}
		}
		c.SetResult([2]int{n, mismatches})
	})

	total, bad := 0, 0
	for r, v := range st.Values {
		pair := v.([2]int)
		fmt.Printf("rank %d: %d particles after resort\n", r, pair[0])
		total += pair[0]
		bad += pair[1]
	}
	fmt.Printf("total %d particles, %d payload mismatches\n", total, bad)
	if bad == 0 {
		fmt.Println("all application data followed its particles — resort indices work")
	}
	// Output:
	// resort-indices: 512 ions on 4 ranks
	// rank 0: 129 particles after resort
	// rank 1: 128 particles after resort
	// rank 2: 127 particles after resort
	// rank 3: 128 particles after resort
	// total 512 particles, 0 payload mismatches
	// all application data followed its particles — resort indices work
}

// globalID is the index of the particle of s at position p, or -1.
func globalID(s *particle.System, p []float64) int64 {
	for i := 0; i < s.N; i++ {
		if s.Pos[3*i] == p[0] && s.Pos[3*i+1] == p[1] && s.Pos[3*i+2] == p[2] {
			return int64(i)
		}
	}
	return -1
}
