package paperbench

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestFig10WorkerCountIdentity is the contract the -workers flag
// advertises: the rendered Figure 10 table is byte-identical at any
// executor run-slot count, fixed or drawn from the host budget (0). Worker
// count may only change host wall-clock time
// — a single virtual-time divergence here means the sharded executor
// leaked host scheduling into the virtual machine.
func TestFig10WorkerCountIdentity(t *testing.T) {
	prev := EngineWorkers()
	defer SetEngineWorkers(prev)

	ranks := []int{4, 16, 64}
	SetEngineWorkers(0)
	ref := RenderFig10(JuRoPA().Name, Fig10(JuRoPA(), ranks))
	for _, w := range []int{1, 2, 8} {
		SetEngineWorkers(w)
		got := RenderFig10(JuRoPA().Name, Fig10(JuRoPA(), ranks))
		if got != ref {
			t.Errorf("workers=%d: figure bytes differ from the budget-drawn reference:\n--- workers=0\n%s--- workers=%d\n%s", w, ref, w, got)
		}
	}
}

// TestTracedConfigWorkerCountIdentity extends the worker-count contract to
// the observability exports: a traced MD configuration's Chrome trace and
// metrics dump must be byte-identical across Workers ∈ {1, 2, 8} on the
// sharded executor — the event log carries per-rank virtual timestamps and
// payload sizes, so it catches ordering leaks the figure tables cannot.
func TestTracedConfigWorkerCountIdentity(t *testing.T) {
	prev := EngineWorkers()
	defer SetEngineWorkers(prev)

	cfg := DefaultConfig()
	cfg.Particles = 1728
	cfg.Ranks = 4
	cfg.Steps = 2
	cfg.Accuracy = 1e-2
	cfg.Thermal = 2.5
	cfg.Solver = "p2nfft"
	cfg.Resort = true
	cfg.Trace = true

	render := func(w int) (string, string) {
		SetEngineWorkers(w)
		res := runConfigs([]Config{cfg})
		var trace, metrics bytes.Buffer
		if err := obs.WriteChromeTrace(&trace, res[0].Events); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteMetrics(&metrics, res[0].Events); err != nil {
			t.Fatal(err)
		}
		return trace.String(), metrics.String()
	}

	refTrace, refMetrics := render(1)
	if refTrace == "" || refMetrics == "" {
		t.Fatalf("empty render: trace=%d metrics=%d bytes", len(refTrace), len(refMetrics))
	}
	for _, w := range []int{2, 8} {
		trace, metrics := render(w)
		if trace != refTrace {
			t.Errorf("workers=%d: Chrome trace export differs from workers=1", w)
		}
		if metrics != refMetrics {
			t.Errorf("workers=%d: metrics export differs from workers=1", w)
		}
	}
}
