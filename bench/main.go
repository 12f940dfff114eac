// Command bench is the repository's benchmark: host wall clock and live heap
// spent simulating a given virtual machine, end to end on five workloads and
// layer by layer from outside the program. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./bench -out report.json              every workload, end-to-end metrics
//	go run ./bench -trace 1 -out report.json     plus the traced pass: per-layer metrics and spans
//	go run ./bench -workload bigp-merge -seed 7  one workload; the last line is one JSON object
//	go run ./bench -compare A.json B.json        compare two reports against the bounds
//	go run ./bench -update-expected              re-pin bench/expected.json
//	go run ./bench -quick -trace 1               smoke run (what go test ./bench drives)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Report is what -out writes.
type Report struct {
	Schema  string  `json:"schema"`
	Host    Host    `json:"host"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Quick   bool    `json:"quick"`
	Traced  bool    `json:"traced"`
	// SpanFile is where the traced pass wrote its spans.
	SpanFile  string           `json:"span_file,omitempty"`
	Workloads []WorkloadReport `json:"workloads"`
}

const reportSchema = "bench/1"

// Host is the shape of the machine the numbers came from.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// driverResult is the one JSON object a single-workload run prints last.
type driverResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// driverLine condenses a report to one value per metric: the median of the
// run's samples.
func driverLine(w WorkloadReport, traced bool) driverResult {
	d := driverResult{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]Metric{}}
	if traced {
		d.Metrics = w.PerLayer
		return d
	}
	for name, dist := range w.EndToEnd {
		d.Metrics[name] = Metric{Value: dist.Median, Unit: dist.Unit}
	}
	return d
}

func printWorkload(w WorkloadReport) {
	fmt.Printf("%s (seed %d): attempted %d, failed %d\n", w.Name, w.Seed, w.Attempted, w.Failed)
	for _, def := range endToEndDefs {
		d := w.EndToEnd[def.Name]
		fmt.Printf("  %-21s %12.6g %-5s q1 %.6g  q3 %.6g  min %.6g  max %.6g  n %d\n",
			def.Name, d.Median, d.Unit, d.Q1, d.Q3, d.Min, d.Max, d.N)
	}
	for _, name := range []string{metricWall, metricSetup, "host_s"} {
		d := w.AsMeasured[name]
		fmt.Printf("  %-21s %12.6g %-5s q1 %.6g  q3 %.6g  min %.6g  max %.6g  n %d  (as measured)\n",
			name, d.Median, d.Unit, d.Q1, d.Q3, d.Min, d.Max, d.N)
	}
	fmt.Printf("  %-21s %12.6g %s\n", "work per second", w.WorkPerSecond.Value, w.WorkPerSecond.Unit)
	pinned := "not pinned at this seed or scale"
	if w.Expected {
		pinned = "checked against expected.json"
	}
	fmt.Printf("  virtual: %.9g s, digest %s, %d messages, %d bytes (%s)\n",
		w.Virtual.VirtualSeconds, w.Virtual.Digest, w.Virtual.Messages, w.Virtual.Bytes, pinned)
	if w.PerLayer != nil {
		fmt.Printf("  rank-0 spans cover %.1f%% of the traced vmpi.Run span (a rank-0 span includes the time rank 0 sits parked)\n", 100*w.SpanCoverage)
		for _, name := range sortedKeys(w.PerLayer) {
			m := w.PerLayer[name]
			fmt.Printf("  %-32s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	for _, f := range w.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and print one JSON object as the last line (default: all five)")
		seed      = flag.Int64("seed", defaultSeed, "derives the particle-system seed, key tables and drift")
		seconds   = flag.Float64("seconds", 18, "how long the timed iterations of one workload run")
		trace     = flag.Int("trace", 0, "1 adds the traced pass: spans, CPU profile, exact counts, ratio runs and probes")
		out       = flag.String("out", "", "write the full report (JSON) here")
		spansOut  = flag.String("spans", ".bench_out/spans.json", "where a traced run writes its spans")
		quick     = flag.Bool("quick", false, "smoke mode: every workload at 1/16 scale or less, one iteration, probes at one repetition")
		compare   = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
		allow     = flag.String("allow-count-change", "", "comma-separated exact values -compare lets differ (e.g. vmpi.messages)")
		benchJSON = flag.String("benchmark-json", "BENCHMARK.json", "where -compare reads the regression bounds")
		update    = flag.Bool("update-expected", false, "re-pin the default seed's virtual results")
		expPath   = flag.String("expected", "bench/expected.json", "the file -update-expected writes")
	)
	flag.Parse()
	// No more threads than the host has, and no more than the canonical
	// invocations use.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *benchJSON, *allow); err != nil {
			fatal(err)
		}
		return
	case *update:
		if err := updateExpected(*expPath); err != nil {
			fatal(err)
		}
		return
	}

	defs := workloads
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []workloadDef{def}
	}
	opts := runOpts{seed: *seed, seconds: *seconds, quick: *quick, traced: *trace != 0}
	rep := Report{
		Schema: reportSchema, Seed: *seed, Seconds: *seconds, Quick: *quick, Traced: opts.traced,
		Host: Host{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()},
	}
	var spans []Span
	for _, def := range defs {
		rep.Workloads = append(rep.Workloads, measureWorkload(def, opts, &spans))
	}
	if opts.traced {
		finishTraced(rep.Workloads, opts.quick)
		if err := writeSpans(*spansOut, spans); err != nil {
			fatal(err)
		}
		rep.SpanFile = *spansOut
		fmt.Printf("%d spans written to %s\n", len(spans), *spansOut)
	}
	failed := false
	for _, w := range rep.Workloads {
		printWorkload(w)
		failed = failed || !w.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatal(err)
		}
	}
	if len(defs) == 1 {
		line, err := json.Marshal(driverLine(rep.Workloads[0], opts.traced))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
