package main

import (
	"flag"
	"os"
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
