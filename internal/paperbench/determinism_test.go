package paperbench

import (
	"runtime"
	"testing"

	"repro/internal/particle"
)

// TestHostParallelismDeterminism asserts the core contract of the intra-rank
// worker-pool layer: running the same simulation at GOMAXPROCS=1 (serial
// tile fallback) and at GOMAXPROCS=max(4, NumCPU) (parallel tiles) produces
// bit-identical results — every StepStat virtual-second field AND the final
// particle state (positions, charges, potentials, fields, velocities,
// accelerations) — for both solvers and both redistribution methods.
func TestHostParallelismDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Particles = 1728
	cfg.Ranks = 4
	cfg.Steps = 3
	cfg.Accuracy = 1e-2
	cfg.Thermal = 2.5

	par := runtime.NumCPU()
	if par < 4 {
		// Even on small hosts, oversubscribing forces real goroutine
		// interleaving through the worker pool's parallel path.
		par = 4
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	type result struct {
		stats  []StepStat
		digest string
	}
	run := func(procs int, solver string, resort bool) result {
		runtime.GOMAXPROCS(procs)
		c := cfg
		c.Solver, c.Dist, c.Resort = solver, particle.DistGrid, resort
		res, err := Run(c)
		if err != nil {
			panic(err)
		}
		return result{res.Steps, res.Digest}
	}

	for _, solver := range solvers() {
		for _, method := range []string{"A", "B"} {
			t.Run(solver+"/method"+method, func(t *testing.T) {
				resort := method == "B"
				serial := run(1, solver, resort)
				parallel := run(par, solver, resort)

				if len(serial.stats) != len(parallel.stats) {
					t.Fatalf("step count differs: %d vs %d", len(serial.stats), len(parallel.stats))
				}
				for i := range serial.stats {
					s, p := serial.stats[i], parallel.stats[i]
					// Exact float comparison is intentional: the vsec metrics
					// must be bit-identical, not merely close.
					if s != p {
						t.Errorf("step %d vsec differs between GOMAXPROCS=1 and %d:\n  serial:   %+v\n  parallel: %+v",
							i, par, s, p)
					}
				}
				if serial.digest != parallel.digest {
					t.Errorf("final particle state differs between GOMAXPROCS=1 and %d:\n  serial:   %s\n  parallel: %s",
						par, serial.digest, parallel.digest)
				}
			})
		}
	}
}
