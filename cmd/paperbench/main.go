// Command paperbench regenerates the evaluation figures of Hofmann &
// Rünger, "Efficient Data Redistribution Methods for Coupled Parallel
// Particle Codes" (ICPP 2013) and the repo's extensions of them, printed as
// text tables of deterministic virtual seconds. Every figure is an entry
// of paperbench.Figures; -h lists their names, and EXPERIMENTS.md
// describes each one.
//
// Examples:
//
//	paperbench                    # the paper's figures (-fig all)
//	paperbench -fig NAME          # one figure at its default configuration
//	paperbench -fig NAME -steps 120 -thermal 2.5
//	paperbench -fig NAME -ranks-list 64,1024 -workers 4
//	paperbench -fig all -j 8
//	paperbench -fig all -trace-out trace.json -metrics-out metrics.txt
//
// The command prints virtual seconds only. Host wall clock and memory are
// measured by the benchmark harness (go run ./bench) and by the benchmarks
// of internal/paperbench.
//
// -steps, -dt and -thermal override the figure's own defaults, and
// -ranks-list its rank sweep; the figures without one ignore it.
//
// -trace-out and -metrics-out additionally run the figure's canonical
// traced cell (Figure.Traced; -fig all shares one) and export its event
// log as a Chrome trace-event JSON timeline and a Prometheus-style metrics
// dump. Both notices go to stderr, so figure output on stdout stays
// byte-stable.
//
// -j sets how many experiments (virtual machine runs) execute concurrently
// on the host (default: the core count), and -workers fixes each
// experiment's executor run-slot count. Every figure, trace, and metrics
// byte is identical at any -j and -workers value — the experiment
// scheduler collects results in submission order and experiments never
// observe the host — so both only change how long the command takes.
//
// Bad input (-ranks or -particles below 1, -accuracy outside (0, 1), a
// negative -workers, a malformed -ranks-list, an unknown -fig) exits with
// status 2 and a one-line message.
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
	figs := paperbench.Figures()
	def := paperbench.DefaultConfig()
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: "+figureNames(figs))
		particles = flag.Int("particles", def.Particles, "global particle count (rounded to an even lattice cube)")
		ranks     = flag.Int("ranks", def.Ranks, "virtual MPI ranks")
		steps     = flag.Int("steps", 0, "MD time steps (0 = the figure's default)")
		dt        = flag.Float64("dt", 0, "time step size (0 = the figure's default)")
		thermal   = flag.Float64("thermal", -1, "initial thermal velocity scale (-1 = the figure's default)")
		accuracy  = flag.Float64("accuracy", def.Accuracy, "requested solver accuracy")
		seed      = flag.Int64("seed", def.Seed, "particle system seed")
		rankListF = flag.String("ranks-list", "", "rank counts of a sweep figure (empty = the figure's default)")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON of the figure's traced cell to this file")
		metricOut = flag.String("metrics-out", "", "write a Prometheus-style metrics dump of the figure's traced cell to this file")
		jobs      = flag.Int("j", runtime.NumCPU(), "concurrent experiment jobs (worker pool size; output is byte-identical at any value)")
		workers   = flag.Int("workers", 0, "executor run slots per experiment (0 = one slot plus host-budget extras; figure bytes are identical at any value)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile (taken after a final GC) to this file")
	)
	flag.Parse()
	if err := checkInputs(*ranks, *particles, *accuracy, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}
	var rankList []int
	if *rankListF != "" {
		var err error
		if rankList, err = parseInts(*rankListF); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: bad -ranks-list: %v\n", err)
			os.Exit(2)
		}
	}
	sel, err := lookup(figs, *fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}

	// Profiles cover everything after flag parsing. Notices go to stderr and
	// the profile data to their own files, so golden stdout is untouched.
	// The stop function runs on every normal return; error paths exit
	// through os.Exit and drop the (partial) profiles, which is fine.
	defer startProfiles(*cpuProf, *memProf)()

	if *jobs > 1 {
		// Stderr only: stdout carries the figure tables, whose bytes must
		// not depend on the worker count.
		fmt.Fprintf(os.Stderr, "paperbench: scheduling experiments on %d workers\n", *jobs)
	}
	for _, f := range sel {
		cfg := f.Config
		cfg.Particles, cfg.Ranks, cfg.Accuracy, cfg.Seed = *particles, *ranks, *accuracy, *seed
		cfg.Workers = *workers
		if *steps > 0 {
			cfg.Steps = *steps
		}
		if *dt > 0 {
			cfg.Dt = *dt
		}
		if *thermal >= 0 {
			cfg.Thermal = *thermal
		}
		sweep := f.Ranks
		if rankList != nil {
			sweep = rankList
		}
		fmt.Print(f.Render(cfg, sweep, *jobs))
	}
	if *traceOut != "" || *metricOut != "" {
		exportEventLog(*traceOut, *metricOut, "-fig "+*fig, sel[0].Traced(*workers))
	}
}

// figureNames lists the -fig values: every table entry, then all.
func figureNames(figs []paperbench.Figure) string {
	var names, all []string
	for _, f := range figs {
		names = append(names, f.Name)
		if f.InAll {
			all = append(all, f.Name)
		}
	}
	return strings.Join(names, ", ") + ", or all (" + strings.Join(all, ", ") + ")"
}

// lookup resolves a -fig value to the figures it prints, in table order.
func lookup(figs []paperbench.Figure, name string) ([]paperbench.Figure, error) {
	var sel []paperbench.Figure
	for _, f := range figs {
		if f.Name == name || (name == "all" && f.InAll) {
			sel = append(sel, f)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown figure %q (have %s)", name, figureNames(figs))
	}
	return sel, nil
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
// a virtual machine run, or be silently clamped.
func checkInputs(ranks, particles int, accuracy float64, workers int) error {
	switch {
	case ranks < 1:
		return fmt.Errorf("bad -ranks: %d < 1", ranks)
	case particles < 1:
		return fmt.Errorf("bad -particles: %d < 1", particles)
	case !(accuracy > 0 && accuracy < 1):
		return fmt.Errorf("bad -accuracy: %v not in (0, 1)", accuracy)
	case workers < 0:
		return fmt.Errorf("bad -workers: %d < 0", workers)
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
