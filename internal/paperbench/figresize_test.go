package paperbench

import (
	"strings"
	"testing"

	"repro/internal/elastic"
	"repro/internal/obs"
	"repro/internal/vmpi"
)

// TestFigResizeCells checks the elastic-resize figure's invariants: the
// elastic legs complete the schedules (two resizes each), only the
// zero-slack shrink leg exercises the method B capacity fallback, the
// static baselines never resize, and elastic never costs more
// node-seconds than static over-provisioning.
func TestFigResizeCells(t *testing.T) {
	if raceEnabled {
		t.Skip("full elastic MD runs exceed the test timeout under the race detector; the elastic package's race tests cover the resize/remap interleavings")
	}
	pts := FigResize(JuRoPA())
	if len(pts) != len(FigResizeDirections()) {
		t.Fatalf("got %d points, want %d", len(pts), len(FigResizeDirections()))
	}
	for _, p := range pts {
		if p.Elastic.Resizes != len(p.Dir.Schedule) {
			t.Errorf("%s: elastic completed %d resizes, want %d",
				p.Dir.Name, p.Elastic.Resizes, len(p.Dir.Schedule))
		}
		if p.Static.Resizes != 0 || p.Static.CapacityFallbacks != 0 {
			t.Errorf("%s: static baseline resized or fell back: %+v", p.Dir.Name, p.Static)
		}
		if p.Elastic.Time <= 0 || p.Elastic.NodeSeconds <= 0 {
			t.Errorf("%s: non-positive elastic cost: %+v", p.Dir.Name, p.Elastic)
		}
		if p.Elastic.NodeSeconds >= p.Static.NodeSeconds {
			t.Errorf("%s: elastic node-seconds %v not below static %v",
				p.Dir.Name, p.Elastic.NodeSeconds, p.Static.NodeSeconds)
		}
		wantFallback := p.Dir.TightCapacity
		if gotFallback := p.Elastic.CapacityFallbacks > 0; gotFallback != wantFallback {
			t.Errorf("%s: capacity fallbacks %d, tight capacity %v",
				p.Dir.Name, p.Elastic.CapacityFallbacks, wantFallback)
		}
	}
	out := RenderFigResize(JuRoPA().Name, pts)
	for _, want := range []string{"Figure R", "elastic", "static", "4 > 6 > 8", "8 > 6 > 4", "capfb"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestFigResizeEnginesAgree pins the elastic scenario's determinism across
// executor run-slot counts: the rendered figure bytes must be identical
// fully serialized and at 8 slots.
func TestFigResizeEnginesAgree(t *testing.T) {
	if raceEnabled {
		t.Skip("two full elastic sweeps exceed the test timeout under the race detector")
	}
	defer SetEngineWorkers(0)
	m := Juqueen()
	SetEngineWorkers(1)
	serial := RenderFigResize(m.Name, FigResize(m))
	SetEngineWorkers(8)
	if wide := RenderFigResize(m.Name, FigResize(m)); wide != serial {
		t.Errorf("run-slot counts render different figures:\nworkers=1:\n%s\nworkers=8:\n%s", serial, wide)
	}
}

// TestFigResizeObsShowsEpochs verifies the exported timeline makes the
// resize epochs visible: the grow leg's event log carries the vmpi resize
// spans, the elastic remap spans, the resize counter, and world-size gauge
// samples for every size the schedule touches.
func TestFigResizeObsShowsEpochs(t *testing.T) {
	l := FigResizeObs()
	d := FigResizeDirections()[0]
	if n := l.Counter(vmpi.CounterResizes); n < float64(len(d.Schedule)) {
		t.Errorf("resize counter total %v, want at least %d", n, len(d.Schedule))
	}
	phases := map[string]bool{}
	sizes := map[float64]bool{}
	for _, e := range l.Filter(func(obs.Event) bool { return true }) {
		switch e.Kind {
		case obs.KindPhaseEnd:
			phases[e.Name] = true
		case obs.KindGauge:
			if e.Name == vmpi.GaugeWorldSize {
				sizes[e.Value] = true
			}
		}
	}
	for _, want := range []string{vmpi.PhaseResize, elastic.PhaseRemap} {
		if !phases[want] {
			t.Errorf("exported timeline has no %q span", want)
		}
	}
	for _, s := range d.Schedule {
		if !sizes[float64(s)] {
			t.Errorf("world-size gauge never reported %d (saw %v)", s, sizes)
		}
	}
}
