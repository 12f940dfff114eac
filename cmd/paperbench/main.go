// Command paperbench regenerates the evaluation figures of Hofmann &
// Rünger, "Efficient Data Redistribution Methods for Coupled Parallel
// Particle Codes" (ICPP 2013): Figures 6–9, printed as text tables of
// deterministic virtual seconds.
//
// Examples:
//
//	paperbench -fig 6
//	paperbench -fig 8 -steps 120 -thermal 2.5
//	paperbench -fig 9l -ranks-list 2,4,8,16
//	paperbench -fig all
//	paperbench -fig all -j 8
//	paperbench -fig 10
//	paperbench -fig 10 -ranks-list 64,1024 -workers 4
//	paperbench -fig all -trace-out trace.json -metrics-out metrics.txt
//
// The command prints virtual seconds only. Host wall clock and memory are
// measured by the benchmark harness (go run ./bench) and, per Figure 10
// rank count, by BenchmarkFig10 in internal/paperbench.
//
// -trace-out and -metrics-out additionally run the canonical
// observability configuration (paperbench.ObsConfig: the Fig. 9 torus
// steady state with message tracing) and export its event log as a Chrome
// trace-event JSON timeline and a Prometheus-style metrics dump. Both
// notices go to stderr, so figure output on stdout stays byte-stable.
//
// -fig 10 is not part of -fig all: it is the large-P redistribution
// strategy sweep (64 … 16384 virtual ranks by default, see EXPERIMENTS.md)
// on the event-driven rank executor. -workers fixes the executor's
// run-slot count; output is byte-identical at any value.
//
// -fig resize (also outside -fig all) is the elastic-worlds cost figure:
// live vmpi.Resize with particle remapping versus static peak
// over-provisioning, on both machine models (see EXPERIMENTS.md). With
// -trace-out/-metrics-out it exports the elastic grow leg's own timeline,
// so the resize epochs (vmpi/resize and elastic/remap spans, resize
// counter, world-size gauge) are visible in the Chrome trace and the
// metrics dump.
//
// -fig mem (also outside -fig all) is the memory-budget figure: a
// fine-grained exchange whose classic single all-to-all stages four times
// the configured budget, run unbounded (metered) and through the redist
// planner's bounded rounds, next to the three sort strategies under the
// same budget (see EXPERIMENTS.md). With -trace-out/-metrics-out the
// planned exchange's timeline (redist/peak_bytes gauge and counter) is
// exported.
//
// -j sets how many experiments (virtual machine runs) execute concurrently
// on the host (default: the core count). Every figure, trace, and metrics
// byte is identical at any -j value — the experiment scheduler collects
// results in submission order and experiments never observe the host — so
// -j only changes how long the command takes.
//
// Bad numeric input (-ranks or -particles below 1, -accuracy outside
// (0, 1), a malformed -ranks-list) exits with status 2 and a one-line
// message.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/paperbench"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9l, 9r, 10, resize, mem, or all (all = the paper's 6-9)")
		particles = flag.Int("particles", 6000, "global particle count (rounded to an even lattice cube)")
		ranks     = flag.Int("ranks", 8, "virtual MPI ranks")
		steps     = flag.Int("steps", 0, "MD time steps (0 = figure-specific default)")
		dt        = flag.Float64("dt", 0, "time step size (0 = figure-specific default)")
		thermal   = flag.Float64("thermal", -1, "initial thermal velocity scale (-1 = figure-specific default)")
		accuracy  = flag.Float64("accuracy", 1e-3, "requested solver accuracy")
		seed      = flag.Int64("seed", 42, "particle system seed")
		rankListF = flag.String("ranks-list", "2,4,8", "rank counts for the figure 9 and 10 sweeps (figure 10 defaults to 64,256,1024,4096,16384)")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON of the canonical observability run to this file")
		metricOut = flag.String("metrics-out", "", "write a Prometheus-style metrics dump of the canonical observability run to this file")
		jobs      = flag.Int("j", runtime.NumCPU(), "concurrent experiment jobs (worker pool size; output is byte-identical at any value)")
		workersF  = flag.Int("workers", 0, "executor run slots per experiment (0 = one slot plus host-budget extras; figure bytes are identical at any value)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile (taken after a final GC) to this file")
	)
	flag.Parse()
	if err := checkInputs(*ranks, *particles, *accuracy); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}
	rankList, err := parseInts(*rankListF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: bad -ranks-list: %v\n", err)
		os.Exit(2)
	}

	// Profiles cover everything after flag parsing. Notices go to stderr and
	// the profile data to their own files, so golden stdout is untouched.
	// The stop function runs on every normal return; error paths exit
	// through os.Exit and drop the (partial) profiles, which is fine.
	defer startProfiles(*cpuProf, *memProf)()

	paperbench.SetJobs(*jobs)
	paperbench.SetEngineWorkers(*workersF)
	if *jobs > 1 {
		// Stderr only: stdout carries the figure tables, whose bytes must
		// not depend on the worker count.
		fmt.Fprintf(os.Stderr, "paperbench: scheduling experiments on %d workers\n", *jobs)
	}

	base := paperbench.DefaultConfig()
	base.Particles = *particles
	base.Ranks = *ranks
	base.Accuracy = *accuracy
	base.Seed = *seed

	withDefaults := func(defSteps int, defDt, defThermal float64) paperbench.Config {
		cfg := base
		cfg.Steps = defSteps
		cfg.Dt = defDt
		cfg.Thermal = defThermal
		if *steps > 0 {
			cfg.Steps = *steps
		}
		if *dt > 0 {
			cfg.Dt = *dt
		}
		if *thermal >= 0 {
			cfg.Thermal = *thermal
		}
		return cfg
	}

	rankListSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ranks-list" {
			rankListSet = true
		}
	})
	// Figure 10 targets the paper's machine sizes; the small figure 9
	// default would not show the scaling story.
	fig10Ranks := rankList
	if !rankListSet {
		fig10Ranks = paperbench.Fig10DefaultRanks()
	}

	run := func(which string) {
		switch which {
		case "6":
			cfg := withDefaults(0, 0.01, 0)
			fmt.Print(paperbench.RenderFig6(paperbench.Fig6(cfg)))
		case "7":
			cfg := withDefaults(8, 0.01, 0)
			fmt.Print(paperbench.RenderFig7(paperbench.Fig7(cfg)))
		case "8":
			cfg := withDefaults(60, 0.01, 2.5)
			fmt.Print(paperbench.RenderFig8(paperbench.Fig8(cfg)))
		case "9l":
			cfg := withDefaults(25, 0.025, 2.5)
			cfg.Machine = paperbench.JuRoPA()
			pts := paperbench.Fig9(cfg, "fmm", rankList)
			fmt.Print(paperbench.RenderFig9("fmm", cfg.Machine.Name, pts))
		case "9r":
			cfg := withDefaults(25, 0.025, 2.5)
			cfg.Machine = paperbench.Juqueen()
			pts := paperbench.Fig9(cfg, "p2nfft", rankList)
			fmt.Print(paperbench.RenderFig9("p2nfft", cfg.Machine.Name, pts))
		case "10":
			for _, m := range []paperbench.Machine{paperbench.JuRoPA(), paperbench.Juqueen()} {
				pts := paperbench.Fig10(m, fig10Ranks)
				fmt.Print(paperbench.RenderFig10(m.Name, pts))
				fmt.Println()
			}
			return
		case "resize":
			for _, m := range []paperbench.Machine{paperbench.JuRoPA(), paperbench.Juqueen()} {
				pts := paperbench.FigResize(m)
				fmt.Print(paperbench.RenderFigResize(m.Name, pts))
				fmt.Println()
			}
			return
		case "mem":
			for _, m := range []paperbench.Machine{paperbench.JuRoPA(), paperbench.Juqueen()} {
				rows := paperbench.FigMem(m)
				fmt.Print(paperbench.RenderFigMem(m.Name, rows))
				fmt.Println()
			}
			return
		default:
			fmt.Fprintf(os.Stderr, "paperbench: unknown figure %q\n", which)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *fig == "all" {
		for _, f := range []string{"6", "7", "8", "9l", "9r"} {
			run(f)
		}
		writeObsExports(*traceOut, *metricOut)
		return
	}
	run(*fig)
	if *fig == "resize" {
		// The resize figure exports its own timeline: the elastic grow leg,
		// whose vmpi/resize and elastic/remap spans, resize counter, and
		// world-size gauge show the resize epochs in both exports.
		if *traceOut != "" || *metricOut != "" {
			exportEventLog(*traceOut, *metricOut, "elastic resize", paperbench.FigResizeObs())
		}
		return
	}
	if *fig == "mem" {
		// The memory figure exports the planned exchange's own timeline,
		// where the redist/peak_bytes gauge and counter are visible.
		if *traceOut != "" || *metricOut != "" {
			exportEventLog(*traceOut, *metricOut, "memory budget", paperbench.FigMemObs())
		}
		return
	}
	writeObsExports(*traceOut, *metricOut)
}

// startProfiles starts the requested pprof captures and returns the
// function that finalizes them (stops the CPU profile, then snapshots the
// heap after a forced GC so the profile reflects retained memory, not
// collectible garbage). All notices go to stderr: stdout carries only the
// figure tables, which the golden checks diff byte-for-byte.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: writing CPU profile to %s\n", cpuPath)
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
				os.Exit(1)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC()
			err = pprof.Lookup("heap").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "paperbench: wrote heap profile to %s\n", memPath)
		}
	}
}

// writeObsExports runs the canonical observability configuration once and
// exports its event log. All notices go to stderr: stdout carries only the
// figure tables, which the golden check diffs byte-for-byte.
func writeObsExports(traceOut, metricsOut string) {
	if traceOut == "" && metricsOut == "" {
		return
	}
	res, err := paperbench.Run(paperbench.ObsConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: observability run: %v\n", err)
		os.Exit(1)
	}
	exportEventLog(traceOut, metricsOut, "canonical run", res.Events)
}

// exportEventLog writes an event log as a Chrome trace and/or a metrics
// dump. All notices go to stderr so figure bytes on stdout stay stable.
func exportEventLog(traceOut, metricsOut, what string, events *obs.Log) {
	write := func(path, kind string, export func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		if err := export(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %s %s to %s\n", what, kind, path)
	}
	write(traceOut, "Chrome trace", func(f *os.File) error { return obs.WriteChromeTrace(f, events) })
	write(metricsOut, "metrics dump", func(f *os.File) error { return obs.WriteMetrics(f, events) })
}

// checkInputs rejects numeric flags that would otherwise panic deep inside
// a virtual machine run.
func checkInputs(ranks, particles int, accuracy float64) error {
	switch {
	case ranks < 1:
		return fmt.Errorf("bad -ranks: %d < 1", ranks)
	case particles < 1:
		return fmt.Errorf("bad -particles: %d < 1", particles)
	case !(accuracy > 0 && accuracy < 1):
		return fmt.Errorf("bad -accuracy: %v not in (0, 1)", accuracy)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("rank count %d < 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
