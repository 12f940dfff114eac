package paperbench

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// TestObsExportGoldenDeterminism is the golden determinism check of the
// observability layer: exporting the canonical Fig. 9 torus run
// (obsConfig) as a Chrome trace and a metrics dump must produce
// byte-identical files at GOMAXPROCS=1 and GOMAXPROCS=8 — the event
// stream, like the physics, is a pure function of the configuration, not
// of host scheduling — and equal to the checked-in obs_trace.json and
// obs_metrics.txt baselines under testdata/golden. It also pins the §III-B
// steady-state claim at the event level: the last solver run's sort-phase
// payload traffic is a neighborhood exchange, not an all-to-all.
func TestObsExportGoldenDeterminism(t *testing.T) {
	if raceEnabled {
		t.Skip("16-rank traced run exceeds the test timeout under the race detector; obs and vmpi unit tests cover the instrumentation paths")
	}
	cfg := obsConfig()
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	type export struct {
		trace, metrics []byte
		res            Result
	}
	run := func(procs int) export {
		runtime.GOMAXPROCS(procs)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tb, mb bytes.Buffer
		if err := obs.WriteChromeTrace(&tb, res.Events); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteMetrics(&mb, res.Events); err != nil {
			t.Fatal(err)
		}
		return export{tb.Bytes(), mb.Bytes(), res}
	}

	serial := run(1)
	parallel := run(8)
	assertExactCounters(t, "canonical run", serial.res.Events)
	if !bytes.Equal(serial.trace, parallel.trace) {
		t.Error("Chrome trace differs between GOMAXPROCS=1 and 8")
	}
	if !bytes.Equal(serial.metrics, parallel.metrics) {
		t.Error("metrics dump differs between GOMAXPROCS=1 and 8")
	}
	if !json.Valid(serial.trace) {
		t.Error("Chrome trace is not valid JSON")
	}
	diffGolden(t, "obs_trace.json", serial.trace)
	diffGolden(t, "obs_metrics.txt", serial.metrics)

	// Steady state: the last solver run's sort-phase payload sends (tag >= 0
	// filters out the collective fallback reductions the sort phase also
	// charges) must form a sparse neighborhood pattern — some pairs active,
	// but far from the (ranks-1) destinations of an all-to-all.
	last, err := lastRunLog(serial.res.Events)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[[2]int]bool{}
	for _, e := range last.Filter(func(e obs.Event) bool {
		return e.Kind == obs.KindSend && e.Name == api.PhaseSort && e.Tag >= 0
	}) {
		pairs[[2]int{e.Rank, e.Peer}] = true
	}
	if len(pairs) == 0 {
		t.Fatal("steady-state run has no sort-phase payload sends")
	}
	if len(pairs) >= cfg.Ranks*(cfg.Ranks-1) {
		t.Errorf("steady-state sort exchange is all-to-all (%d active pairs of %d possible); want a neighborhood pattern",
			len(pairs), cfg.Ranks*(cfg.Ranks-1))
	}

	// The same steady state as seen through the event-derived RunStats.
	rs := serial.res.RunStats
	if len(rs) != cfg.Steps+1 {
		t.Fatalf("expected %d per-run stats, got %d", cfg.Steps+1, len(rs))
	}
	lastRS := rs[len(rs)-1]
	if lastRS.Strategy != api.StrategyNeighborhood || !lastRS.FastPath || lastRS.Fallback {
		t.Errorf("steady-state stats %+v, want fast neighborhood exchange", lastRS)
	}
}

// assertExactCounters checks, on a traced log, the property that lets an
// untraced one answer Counter from per-rank sums (see
// obs.FuzzAggregatesMatchLog): every counter increment is an integer and
// the magnitudes total less than 2^53, so float64 addition is exact in any
// grouping.
func assertExactCounters(t *testing.T, what string, l *obs.Log) {
	t.Helper()
	total, n := 0.0, 0
	for _, evs := range l.ByRank {
		for _, e := range evs {
			if e.Kind != obs.KindCounter {
				continue
			}
			n++
			if e.Value != math.Trunc(e.Value) {
				t.Errorf("%s: counter %q on rank %d carries the non-integer %v", what, e.Name, e.Rank, e.Value)
			}
			total += math.Abs(e.Value)
		}
	}
	if n == 0 || total >= 1<<53 {
		t.Errorf("%s: %d counter events totalling %g, want some and a total below 2^53", what, n, total)
	}
}

// TestFigureTimelinesAreSpanOnly pins what the resize and memory figures
// export: traced runs with the point-to-point messages filtered out — the
// spans, counters and gauges of the timeline, nothing per message — whose
// Chrome trace and metrics dump equal their baselines under
// testdata/golden.
func TestFigureTimelinesAreSpanOnly(t *testing.T) {
	prefixes := map[string]string{"resize": "obs_resize", "mem": "obs_mem"}
	for _, f := range Figures() {
		prefix, ok := prefixes[f.Name]
		if !ok {
			continue
		}
		what, l := "-fig "+f.Name, f.Traced(0)
		if !l.HasEvents() {
			t.Fatalf("%s: export log holds no event list", what)
		}
		kinds := map[obs.Kind]int{}
		for _, evs := range l.ByRank {
			for _, e := range evs {
				kinds[e.Kind]++
			}
		}
		if kinds[obs.KindSend]+kinds[obs.KindArrive] != 0 {
			t.Errorf("%s: timeline carries %d send and %d arrive events", what, kinds[obs.KindSend], kinds[obs.KindArrive])
		}
		if kinds[obs.KindCollective] == 0 || kinds[obs.KindGauge] == 0 {
			t.Errorf("%s: timeline lacks spans or samples: %v", what, kinds)
		}
		assertExactCounters(t, what, l)
		diffExports(t, prefix, l)
	}
}

// TestLastRunLogNeedsEventList: slicing the last run out of a log that
// kept no list is a failure, not an empty log.
func TestLastRunLogNeedsEventList(t *testing.T) {
	var buf obs.Buffer
	buf.Init(0, false)
	buf.Record(obs.Event{Kind: obs.KindGauge, Name: runMarker, Value: 1})
	if l, err := lastRunLog(obs.NewLog([]*obs.Buffer{&buf})); !errors.Is(err, obs.ErrNoEvents) || l != nil {
		t.Errorf("lastRunLog on an aggregate-only log = %v, %v, want nil, ErrNoEvents", l, err)
	}
}

// lastRunLog slices out each rank's events after its final runMarker gauge
// — the steady-state tail of a Run (the last solver run), where the
// movement heuristic has settled and method B's exchange footprint is at
// its neighborhood minimum. The log must hold an event list (Config.Trace);
// an aggregate-only log fails with obs.ErrNoEvents.
func lastRunLog(l *obs.Log) (*obs.Log, error) {
	if !l.HasEvents() {
		return nil, obs.ErrNoEvents
	}
	out := &obs.Log{ByRank: make([][]obs.Event, len(l.ByRank))}
	for r, evs := range l.ByRank {
		start := 0
		for i, e := range evs {
			if e.Kind == obs.KindGauge && e.Name == runMarker {
				start = i + 1
			}
		}
		out.ByRank[r] = evs[start:]
	}
	return out, nil
}
