package paperbench

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestFiguresByteIdenticalAcrossWorkers is the in-process version of the CI
// golden check: every figure table and both observability exports must be
// byte-identical whether the experiment scheduler runs one job at a time or
// eight concurrently (the make golden -j sweep runs the full-size binary
// the same way). Any divergence means an experiment observed the host — a
// scheduler ordering leak, shared mutable state between runs, or a
// wall-clock value reaching the virtual results.
func TestFiguresByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Particles = 1728
	cfg.Ranks = 4
	cfg.Steps = 2
	cfg.Accuracy = 1e-2
	cfg.Thermal = 2.5

	// Traced run exercising the -trace-out/-metrics-out path, scheduled
	// like a figure experiment so it also runs concurrently at -j 8.
	traced := cfg
	traced.Solver = "p2nfft"
	traced.Resort = true
	traced.Trace = true

	render := func() (string, string, string) {
		var figs bytes.Buffer
		figs.WriteString(RenderFig6(Fig6(cfg)))
		figs.WriteString(RenderFig7(Fig7(cfg)))
		figs.WriteString(RenderFig8(Fig8(cfg)))
		figs.WriteString(RenderFig9("fmm", cfg.Machine.Name, Fig9(cfg, "fmm", []int{2, 4})))

		res := runConfigs([]Config{traced, traced})
		var trace, metrics bytes.Buffer
		for _, r := range res {
			if err := obs.WriteChromeTrace(&trace, r.Events); err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteMetrics(&metrics, r.Events); err != nil {
				t.Fatal(err)
			}
		}
		return figs.String(), trace.String(), metrics.String()
	}

	oldWorkers := jobWorkers
	defer SetJobs(oldWorkers)

	SetJobs(1)
	figs1, trace1, metrics1 := render()
	SetJobs(8)
	figs8, trace8, metrics8 := render()

	if figs1 != figs8 {
		t.Errorf("figure tables differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", figs1, figs8)
	}
	if trace1 != trace8 {
		t.Errorf("Chrome trace export differs between -j 1 and -j 8")
	}
	if metrics1 != metrics8 {
		t.Errorf("metrics export differs between -j 1 and -j 8")
	}
	if figs1 == "" || trace1 == "" || metrics1 == "" {
		t.Fatalf("empty render: figs=%d trace=%d metrics=%d bytes", len(figs1), len(trace1), len(metrics1))
	}
}
