package paperbench

import (
	"strings"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Figure is one entry of the figure table: what paperbench -fig regenerates
// under its name.
type Figure struct {
	// Name selects the figure on the command line.
	Name string
	// Config is the figure's default configuration. Particles, Ranks,
	// Accuracy and Seed are DefaultConfig's in every entry. Figures 10, R
	// and M read only Workers: their cells are fixed workloads on both
	// machines.
	Config Config
	// Ranks is the default rank sweep of Figures 9 and 10, nil elsewhere.
	Ranks []int
	// InAll marks the paper's own figures, the ones -fig all prints in
	// table order.
	InAll bool

	// run computes the figure's cells as one scheduler batch and returns
	// its text together with the rows it rendered (the package's tests
	// assert on those).
	run func(cfg Config, ranks []int, jobs int) (string, any)
	// traced runs the figure's canonical traced cell.
	traced func(workers int) *obs.Log
}

// Render runs the figure's experiments, at most jobs at a time (below 1:
// the host's core count), and returns its full stdout text: every machine
// panel, each followed by a blank line. The bytes are identical at any
// jobs and cfg.Workers.
func (f Figure) Render(cfg Config, ranks []int, jobs int) string {
	text, _ := f.run(cfg, ranks, jobs)
	return text
}

// Traced runs the figure's canonical traced cell with the executor pinned
// to workers run slots (0: the engine default) and returns the event log
// the -trace-out/-metrics-out exports write. Figures 6–10 share the
// canonical observability run; Figure R traces its elastic grow leg and
// Figure M its planned exchange.
func (f Figure) Traced(workers int) *obs.Log { return f.traced(workers) }

// Figures returns the figure table in presentation order.
func Figures() []Figure {
	md := func(steps int, dt, thermal float64) Config {
		cfg := DefaultConfig()
		cfg.Steps, cfg.Dt, cfg.Thermal = steps, dt, thermal
		return cfg
	}
	fig9cfg := func(m Machine, solver string) Config {
		cfg := md(25, 0.025, 2.5)
		cfg.Machine, cfg.Solver = m, solver
		return cfg
	}
	fig9run := func(cfg Config, ranks []int, jobs int) (string, any) {
		return show(fig9(cfg, ranks, jobs), func(pts []fig9Point) string {
			return renderFig9(cfg.Solver, cfg.Machine.Name, pts)
		})
	}
	return []Figure{
		{Name: "6", Config: md(0, 0.01, 0), InAll: true, traced: canonicalTrace,
			run: func(cfg Config, _ []int, jobs int) (string, any) { return show(fig6(cfg, jobs), renderFig6) }},
		{Name: "7", Config: md(8, 0.01, 0), InAll: true, traced: canonicalTrace,
			run: func(cfg Config, _ []int, jobs int) (string, any) { return show(fig7(cfg, jobs), renderFig7) }},
		{Name: "8", Config: md(60, 0.01, 2.5), InAll: true, traced: canonicalTrace,
			run: func(cfg Config, _ []int, jobs int) (string, any) { return show(fig8(cfg, jobs), renderFig8) }},
		{Name: "9l", Config: fig9cfg(JuRoPA(), "fmm"), Ranks: []int{2, 4, 8, 16}, InAll: true,
			traced: canonicalTrace, run: fig9run},
		{Name: "9r", Config: fig9cfg(Juqueen(), "p2nfft"), Ranks: []int{2, 4, 8, 16}, InAll: true,
			traced: canonicalTrace, run: fig9run},
		{Name: "10", Config: DefaultConfig(), Ranks: []int{64, 256, 1024, 4096, 16384}, traced: canonicalTrace,
			run: func(cfg Config, ranks []int, jobs int) (string, any) {
				return show(fig10(machines(), ranks, cfg.Workers, jobs), panels(renderFig10))
			}},
		{Name: "resize", Config: DefaultConfig(), traced: figResizeTrace,
			run: func(cfg Config, _ []int, jobs int) (string, any) {
				return show(figResize(machines(), cfg.Workers, jobs), panels(renderFigResize))
			}},
		{Name: "mem", Config: DefaultConfig(), traced: figMemTrace,
			run: func(cfg Config, _ []int, jobs int) (string, any) {
				return show(figMem(machines(), cfg.Workers, jobs), panels(renderFigMem))
			}},
	}
}

// show returns a figure's stdout text, rendered from its rows and followed
// by a blank line, together with the rows.
func show[R any](rows R, render func(R) string) (string, any) {
	return render(rows) + "\n", rows
}

// machines lists the two platforms Figures 10, R and M print a panel for.
func machines() []Machine { return []Machine{JuRoPA(), Juqueen()} }

// panels renders one panel per machine, separated by blank lines.
func panels[T any](render func(machine string, rows []T) string) func([][]T) string {
	return func(rows [][]T) string {
		var text []string
		for i, m := range machines() {
			text = append(text, render(m.Name, rows[i]))
		}
		return strings.Join(text, "\n")
	}
}

// canonicalTrace is Figures 6–10's traced cell: one Run of obsConfig.
func canonicalTrace(workers int) *obs.Log {
	cfg := obsConfig()
	cfg.Workers = workers
	return mustRun(cfg).Events
}

// The figures run their experiments — one vmpi virtual machine per figure
// row, curve, or sweep point — through the experiment scheduler
// (internal/sched). Experiments are independent (a Run call shares no
// mutable state with another), results are collected in submission order,
// and the assembled figures are byte-identical at any worker count; only
// the host wall-clock time changes.

// runConfigs executes one experiment per configuration, n at a time (below
// 1: the shared host-compute budget's capacity), and returns the results
// in configuration order.
func runConfigs(n int, cfgs []Config) []Result {
	jobs := make([]func() Result, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = func() Result { return mustRun(c) }
	}
	return sched.Run(sched.Options{Workers: n}, jobs)
}

// onMachines runs the cells of every machine in ms as one scheduler batch,
// n at a time, and returns each machine's results in cell order.
func onMachines[T any](ms []Machine, n int, cells func(m Machine) []func() T) [][]T {
	var jobs []func() T
	var counts []int
	for _, m := range ms {
		c := cells(m)
		jobs = append(jobs, c...)
		counts = append(counts, len(c))
	}
	vals := sched.Run(sched.Options{Workers: n}, jobs)
	out := make([][]T, len(counts))
	for i, k := range counts {
		out[i], vals = vals[:k], vals[k:]
	}
	return out
}
