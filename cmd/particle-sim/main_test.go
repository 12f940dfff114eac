package main

import (
	"flag"
	"math"
	"os"
	"testing"
)

// Example runs the generic benchmark application (paper §IV) on a small
// melt: two MD steps with the P2NFFT solver and method B, whose energy
// check and phase breakdown are deterministic virtual seconds.
func Example() {
	args, flags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, flags }()
	os.Args = []string{"particle-sim", "-n", "512", "-ranks", "2", "-steps", "2", "-solver", "p2nfft", "-method", "B"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
	// Output:
	// particle-sim: 512 particles, box 21.25, 2 ranks (switched), solver p2nfft, method B, 2 steps, dt 0.01
	// energy: initial K=0 U=-169.373 E=-169.373; final K=0.027909 U=-169.401 E=-169.373
	// virtual runtime: 0.03182 s (max over ranks)
	// phase breakdown (max over ranks, virtual seconds):
	//   sort           6.7866e-03
	//   restore        0.0000e+00
	//   resort-create  2.4744e-05
	//   resort         4.0104e-05
	//   near           4.2919e-04
	//   far            2.4500e-02
	//   total          3.1743e-02
	// communication: 108 messages, 6.54 MB total
}

// TestCheckFlags pins which flag values the command turns away before any
// virtual machine starts: one rejected value of each checked flag.
func TestCheckFlags(t *testing.T) {
	type flags struct {
		solver             string
		n, ranks, steps    int
		dt, side, accuracy float64
	}
	def := flags{"fmm", 6000, 8, 10, 0.01, 0, 1e-3}
	for _, tc := range []struct {
		name string
		edit func(*flags)
		ok   bool
	}{
		{"defaults", func(*flags) {}, true},
		{"p2nfft, one particle, one rank, no steps, a side", func(f *flags) {
			f.solver, f.n, f.ranks, f.steps, f.side = "p2nfft", 1, 1, 0, 20
		}, true},
		{"unknown solver", func(f *flags) { f.solver = "pppm" }, false},
		{"zero particles", func(f *flags) { f.n = 0 }, false},
		{"zero ranks", func(f *flags) { f.ranks = 0 }, false},
		{"negative steps", func(f *flags) { f.steps = -1 }, false},
		{"zero dt", func(f *flags) { f.dt = 0 }, false},
		{"infinite dt", func(f *flags) { f.dt = math.Inf(1) }, false},
		{"negative side", func(f *flags) { f.side = -1 }, false},
		{"NaN side", func(f *flags) { f.side = math.NaN() }, false},
		{"accuracy two", func(f *flags) { f.accuracy = 2 }, false},
		{"zero accuracy", func(f *flags) { f.accuracy = 0 }, false},
		{"NaN accuracy", func(f *flags) { f.accuracy = math.NaN() }, false},
	} {
		f := def
		tc.edit(&f)
		err := checkFlags(f.solver, f.n, f.ranks, f.steps, f.dt, f.side, f.accuracy)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%+v) = %v, want ok=%v", tc.name, f, err, tc.ok)
		}
	}
}
