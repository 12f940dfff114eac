package main

import (
	"bytes"
	"math"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/paperbench"
	"repro/internal/vmpi"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSONFile("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesHarness checks BENCHMARK.json against the harness
// in both directions: every workload and metric the file names is one the
// harness reports, with the same unit, direction and bound, and vice versa.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if strings.Join(bf.Command, " ") != "go run ./bench" {
		t.Errorf("command = %v", bf.Command)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: file has %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming contract", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: file has %+v, harness has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	defs := perLayerDefs()
	if len(defs) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(defs))
	}
	if len(bf.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bf.PerLayer), len(defs))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		d := defs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: file has %+v, harness has %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(m.Name) || m.Unit == "" || seen[m.Name] {
			t.Errorf("per-layer metric %q: bad name, empty unit or duplicate", m.Name)
		}
		if d.Moves == "" {
			t.Errorf("per-layer metric %q does not say what it should move", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestQuickSmoke drives the whole harness in -quick mode with the traced
// pass, at a seed other than the pinned one: every workload passes its
// oracle checks, is self-consistent across its iterations (each is compared
// with the first), and reports exactly the metrics BENCHMARK.json lists.
func TestQuickSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	opts := runOpts{seed: 2, seconds: 1, quick: true, traced: true}
	var spans []Span
	var reports []WorkloadReport
	for _, def := range workloads {
		reports = append(reports, measureWorkload(def, opts, &spans))
	}
	if !raceEnabled {
		finishTraced(reports, true)
	}
	for _, rep := range reports {
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 6 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", rep.Name, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
		}
		if rep.Expected {
			t.Errorf("%s: a quick run at seed 2 must not be checked against expected.json", rep.Name)
		}
		end := driverLine(rep, false).Metrics
		if len(end) != len(bf.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", rep.Name, len(end), len(bf.EndToEnd))
		}
		for _, m := range bf.EndToEnd {
			got, ok := end[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", rep.Name, m.Name, got, ok, m.Unit)
			}
		}
		layer := driverLine(rep, true).Metrics
		if raceEnabled {
			layer = completeLayerMetrics(rep.layer) // no probes run
		}
		if len(layer) != len(bf.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", rep.Name, len(layer), len(bf.PerLayer))
		}
		for _, m := range bf.PerLayer {
			got, ok := layer[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want a finite value in %s", rep.Name, m.Name, got, ok, m.Unit)
			}
		}
		if rep.Virtual.Messages <= 0 || rep.Virtual.Digest == "" {
			t.Errorf("%s: empty virtual result %+v", rep.Name, rep.Virtual)
		}
		if rep.SpanCoverage < 0.9 {
			t.Errorf("%s: rank-0 spans cover %.2f of the vmpi.Run span, want >= 0.9", rep.Name, rep.SpanCoverage)
		}
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.Workload == "" || s.Layer == "" {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// corrupted wraps an instance and damages the virtual result of every
// iteration after the first.
type corrupted struct {
	instance
	calls int
}

func (c *corrupted) check(st *vmpi.Stats) (Virtual, map[string]float64, error) {
	v, layer, err := c.instance.check(st)
	if c.calls++; c.calls > 1 {
		v.Digest = "corrupted"
	}
	return v, layer, err
}

// dropper wraps an instance whose rank 0 returns no result, as a rank body
// that lost its data would.
type dropper struct{ instance }

func (d dropper) body(tr *tracer) func(c *vmpi.Comm) {
	inner := d.instance.body(tr)
	return func(c *vmpi.Comm) {
		inner(c)
		if c.Rank() == 0 {
			c.SetResult(nil)
		}
	}
}

func TestCorruptedResultCountsAsFailed(t *testing.T) {
	def, _ := findWorkload("bigp-nbr")
	rep := WorkloadReport{}
	r := &runner{def: def, rep: &rep, inst: &corrupted{instance: def.prepare(3, true)}}
	r.iterate("first", iterOpts{})
	r.iterate("second", iterOpts{})
	if rep.Attempted != 2 || rep.Failed != 1 || len(rep.Failures) != 1 {
		t.Errorf("attempted %d, failed %d (%v); want 2, 1", rep.Attempted, rep.Failed, rep.Failures)
	}

	rep = WorkloadReport{}
	r = &runner{def: def, rep: &rep, inst: dropper{def.prepare(3, true)}}
	r.iterate("dropped", iterOpts{})
	if rep.Attempted != 1 || rep.Failed != 1 {
		t.Errorf("lost rank result: attempted %d, failed %d; want 1, 1", rep.Attempted, rep.Failed)
	}

	// A pinned value that the run does not reproduce fails it too.
	rep = WorkloadReport{}
	r = &runner{def: def, rep: &rep, inst: def.prepare(3, true), pinned: &Virtual{Digest: "pinned elsewhere"}}
	r.iterate("pinned", iterOpts{})
	if rep.Failed != 1 {
		t.Errorf("mismatch with the pinned value: failed %d, want 1", rep.Failed)
	}
}

// TestExpectedMatchesPaperbench proves the harness's own rank body measures
// the same program as the figure harness: the md-* values pinned in
// expected.json equal what paperbench.Run yields for the same Config.
func TestExpectedMatchesPaperbench(t *testing.T) {
	if raceEnabled {
		t.Skip("full-size MD runs; see race_on_test.go")
	}
	for _, name := range []string{"md-fmm", "md-pnfft"} {
		want, ok := expected[name]
		if !ok {
			t.Fatalf("expected.json has no %s", name)
		}
		kind := mdFMM
		machine := paperbench.JuRoPA()
		if name == "md-pnfft" {
			kind, machine = mdPNFFT, paperbench.Juqueen()
		}
		cfg := paperbench.DefaultConfig()
		cfg.Particles, cfg.Ranks, cfg.Steps, cfg.Dt = mdParticles, mdRanks, mdSteps, mdDt
		cfg.Thermal, cfg.Accuracy, cfg.Seed = mdThermal, mdAccuracy, mdSystemSeed(defaultSeed)
		cfg.Machine, cfg.Solver, cfg.Dist = machine, kind.solver, kind.dist
		cfg.Resort, cfg.TrackMovement = kind.resort, kind.trackMovement
		res, err := paperbench.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != want.Digest {
			t.Errorf("%s: paperbench digest %s, expected.json %s", name, res.Digest, want.Digest)
		}
		if last := res.Steps[len(res.Steps)-1].Total; last != want.VirtualSeconds {
			t.Errorf("%s: paperbench last-step Total %v, expected.json %v", name, last, want.VirtualSeconds)
		}
	}
	for _, def := range workloads {
		if v, ok := expected[def.Name]; !ok || v.Messages <= 0 || v.Bytes <= 0 || v.Digest == "" {
			t.Errorf("expected.json: %s is missing or incomplete: %+v", def.Name, v)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

// TestReadProfile parses a CPU profile the test records itself and checks
// that the spinning function is found and attributed to the harness.
func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink += spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range samples {
		total += s.Value
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.Value
				if got := classify(s.Stack); got != "bench" && got != "runtime_gc" {
					t.Errorf("stack %v classified as %q, want bench", s.Stack, got)
				}
				break
			}
		}
	}
	if total <= 0 || float64(spin) < 0.5*float64(total) {
		t.Errorf("spinForProfile holds %d of %d profiled ns, want most of them", spin, total)
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("readProfile accepted garbage")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Sqrt", "repro/internal/fmm.(*Tables).M2L", "main.run"}, "fmm"},
		{[]string{"runtime.memmove", "repro/internal/vmpi.Send[go.shape.struct { repro/bench.key uint64 }]", "repro/internal/psort.SortMerge[go.shape.uint64]"}, "vmpi"},
		{[]string{"repro/internal/zorder.Encode", "repro/internal/pnfft.(*Solver).Run"}, "pnfft"},
		{[]string{"repro/internal/mdsim.(*Sim).Step", "main.(*mdInstance).body.func1"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/vmpi.getSlice"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime_sched"},
		{[]string{"runtime.futex", "runtime.chansend", "repro/internal/rankexec.(*Executor).UnparkBatch"}, "rankexec"},
		{[]string{"runtime/pprof.profileWriter"}, "runtime_other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestQuietSeconds checks the host-speed correction: none on the quiet
// reference host, less than the clock's reading on a slower one, and a
// reference kernel that reads a positive time without growing the Go heap.
func TestQuietSeconds(t *testing.T) {
	if got := quietSeconds(2, quietHostSeconds, hostShare); got != 2 {
		t.Errorf("quietSeconds(2, quiet host) = %v, want 2", got)
	}
	if got := quietSeconds(2, 2*quietHostSeconds, hostShare); !(got < 2 && got > 1) {
		t.Errorf("quietSeconds(2, host at half speed) = %v, want between 1 and 2", got)
	}
	hostSeconds(true) // builds the tables
	runtime.GC()
	before := readLiveHeap()
	if s := hostSeconds(true); !(s > 0) {
		t.Errorf("hostSeconds = %v, want a positive time", s)
	}
	runtime.GC()
	if after := readLiveHeap(); after > before+1<<20 {
		t.Errorf("the reference kernel left %d bytes live", after-before)
	}
}

func dist(samples ...float64) Dist { return summarise(samples, "s") }

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b Dist
		want string
	}{
		{"same", dist(1.00, 1.01, 1.02), dist(1.00, 1.01, 1.03), verdictAgree},
		{"slower, tight", dist(1.00, 1.01, 1.02), dist(1.20, 1.21, 1.22), verdictRegressed},
		{"faster", dist(1.00, 1.01, 1.02), dist(0.80, 0.81, 0.82), verdictAgree},
		{"wide and overlapping", dist(0.8, 1.0, 1.3, 1.5), dist(0.9, 1.2, 1.4, 1.6), verdictUnresolved},
		{"wide but every run worse", dist(0.8, 1.0, 1.3, 1.5), dist(2.0, 2.4, 2.8, 3.0), verdictRegressed},
	} {
		if _, got := judge(tc.a, tc.b, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	bf := loadBenchmarkFile(t)
	mk := func(wall float64, messages int64, failed int) Report {
		w := WorkloadReport{Name: "bigp-merge", Attempted: 10, Failed: failed, EndToEnd: map[string]Dist{
			metricWall:  dist(wall, wall*1.01, wall*1.02),
			metricHeap:  dist(100, 101, 102),
			metricSetup: dist(3),
		}}
		w.Virtual.Messages = messages
		return Report{Workloads: []WorkloadReport{w}}
	}
	var out bytes.Buffer
	if !compareReports(&out, mk(1, 500, 0), mk(1.01, 500, 0), bf, nil) {
		t.Errorf("equal reports do not agree:\n%s", out.String())
	}
	if compareReports(&out, mk(1, 500, 0), mk(1.5, 500, 0), bf, nil) {
		t.Error("a 50 % slower wall_s passed")
	}
	if compareReports(&out, mk(1, 500, 0), mk(1, 500, 1), bf, nil) {
		t.Error("a higher failed share passed")
	}
	if compareReports(&out, mk(1, 500, 0), mk(1, 501, 0), bf, nil) {
		t.Error("a changed exact count passed without being named")
	}
	if !compareReports(&out, mk(1, 500, 0), mk(1, 501, 0), bf, map[string]bool{"vmpi.messages": true}) {
		t.Error("a named count change did not pass")
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("the report never says %q:\n%s", verdictRegressed, out.String())
	}
}
