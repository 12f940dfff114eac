package paperbench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/particle"
)

// mustRun executes Run for a figure-internal configuration, where an error
// can only mean a bug in the figure code itself.
func mustRun(cfg Config) Result {
	res, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// --- Figure 6: influence of the initial particle distribution -----------

// fig6Row is one bar group of Fig. 6: a solver under one initial
// distribution with method A.
type fig6Row struct {
	Solver string
	Dist   particle.Dist
	Total  float64
	Sort   float64
	Restor float64
}

// fig6 measures total runtimes and runtimes for sorting and restoring the
// particles for both solvers under the three initial distributions (single
// process, random, process grid), using method A. Each solver×distribution
// cell is an independent experiment scheduled on the shared worker pool;
// rows come back in the nested-loop order regardless of completion order.
func fig6(cfg Config, jobs int) []fig6Row {
	var rows []fig6Row
	var cfgs []Config
	for _, solver := range solvers() {
		for _, dist := range []particle.Dist{particle.DistSingle, particle.DistRandom, particle.DistGrid} {
			c := cfg
			c.Solver, c.Dist = solver, dist
			c.Steps, c.Thermal = 0, 0 // one solver run, paper's v0 = 0
			c.Resort, c.TrackMovement = false, false
			rows = append(rows, fig6Row{Solver: solver, Dist: dist})
			cfgs = append(cfgs, c)
		}
	}
	for i, res := range runConfigs(jobs, cfgs) {
		st := res.Steps[0]
		rows[i].Total, rows[i].Sort, rows[i].Restor = st.Total, st.Sort, st.Restore
	}
	return rows
}

// renderFig6 prints the Fig. 6 rows as a text table.
func renderFig6(rows []fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: influence of the initial particle distribution (method A, virtual seconds)\n")
	fmt.Fprintf(&b, "%-8s %-15s %12s %12s %12s\n", "solver", "distribution", "total", "sort", "restore")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-15s %s %s %s\n", r.Solver, r.Dist, fmtSeconds(r.Total), fmtSeconds(r.Sort), fmtSeconds(r.Restor))
	}
	return b.String()
}

// --- Figures 7 and 8: method A vs B over the MD loop ----------------------

// methodSeries is one curve set of Figs. 7 and 8 for a solver and method:
// per solver run, the sort, the second redistribution phase (restore for
// method A, resort for method B) and the solver total.
type methodSeries struct {
	Solver              string
	Method              string // "A" or "B"
	Sort, Second, Total []float64
}

// second names the series' second redistribution phase.
func (s methodSeries) second() string {
	if s.Method == "B" {
		return "resort"
	}
	return "restore"
}

// redist is the series' redistribution cost per run: sort plus restore or
// resort.
func (s methodSeries) redist() []float64 {
	out := make([]float64, len(s.Sort))
	for i := range out {
		out[i] = s.Sort[i] + s.Second[i]
	}
	return out
}

// methodRuns runs the MD loop from dist for both solvers and both
// methods, one experiment each; index 0 of every series is the initial
// computation.
func methodRuns(cfg Config, dist particle.Dist, jobs int) []methodSeries {
	var out []methodSeries
	var cfgs []Config
	for _, solver := range solvers() {
		for _, method := range []string{"A", "B"} {
			c := cfg
			c.Solver, c.Dist = solver, dist
			c.Resort, c.TrackMovement = method == "B", false
			out = append(out, methodSeries{Solver: solver, Method: method})
			cfgs = append(cfgs, c)
		}
	}
	for i, res := range runConfigs(jobs, cfgs) {
		s := &out[i]
		for _, st := range res.Steps {
			second := st.Restore
			if s.Method == "B" {
				second = st.Resort
			}
			s.Sort = append(s.Sort, st.Sort)
			s.Second = append(s.Second, second)
			s.Total = append(s.Total, st.Total)
		}
	}
	return out
}

// fig7 runs the MD loop with a uniformly random initial distribution,
// reporting the per-step redistribution and total runtimes (paper Fig. 7:
// initial particles plus the first 8 steps).
func fig7(cfg Config, jobs int) []methodSeries {
	return methodRuns(cfg, particle.DistRandom, jobs)
}

// renderFig7 prints the Fig. 7 series.
func renderFig7(series []methodSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: method A vs B over the initial solve and the first time steps\n")
	fmt.Fprintf(&b, "(random initial distribution; virtual seconds; step 0 = initial particles)\n")
	for _, s := range series {
		fmt.Fprintf(&b, "\n%s / method %s\n%-6s %12s %12s %12s\n", s.Solver, s.Method, "step", "sort", s.second(), "total")
		for i := range s.Total {
			label := fmt.Sprintf("%d", i)
			if i == 0 {
				label = "init"
			}
			fmt.Fprintf(&b, "%-6s %s %s %s\n", label, fmtSeconds(s.Sort[i]), fmtSeconds(s.Second[i]), fmtSeconds(s.Total[i]))
		}
		fmt.Fprintf(&b, "sort over steps (log scale): %s\n", sparkline(s.Sort))
	}
	// §IV-C summary: total runtime of method B relative to method A in the
	// first time step (methodRuns pairs each solver's A and B series).
	for i := 0; i+1 < len(series); i += 2 {
		a, bb := series[i], series[i+1]
		if len(a.Total) > 1 && a.Total[1] > 0 {
			fmt.Fprintf(&b, "\n%s: method B total in first step = %.0f%% of method A (paper: ~45%% FMM, ~20%% P2NFFT)\n",
				a.Solver, 100*bb.Total[1]/a.Total[1])
		}
	}
	return b.String()
}

// fig8 runs longer MD simulations from the process-grid initial
// distribution. As particles drift away from the initial decomposition,
// method A's redistribution cost grows while method B's stays flat. The
// series hold the time steps only, as Fig. 8 plots them.
func fig8(cfg Config, jobs int) []methodSeries {
	series := methodRuns(cfg, particle.DistGrid, jobs)
	for i := range series {
		s := &series[i]
		s.Sort, s.Second, s.Total = s.Sort[1:], s.Second[1:], s.Total[1:]
	}
	return series
}

// renderFig8 prints sampled points of the Fig. 8 series plus the paper's
// end-of-run redistribution share.
func renderFig8(series []methodSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: redistribution cost over a long simulation (process-grid initial distribution)\n")
	for _, s := range series {
		fmt.Fprintf(&b, "\n%s / method %s (virtual seconds)\n%-6s %12s %12s %12s %12s %8s\n",
			s.Solver, s.Method, "step", "sort", s.second(), "redist", "total", "share")
		n, redist := len(s.Total), s.redist()
		stride := n / 10
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < n; i += stride {
			fmt.Fprintf(&b, "%-6d %s %s %s %s %7.1f%%\n", i+1,
				fmtSeconds(s.Sort[i]), fmtSeconds(s.Second[i]),
				fmtSeconds(redist[i]), fmtSeconds(s.Total[i]),
				100*redist[i]/s.Total[i])
		}
		last := n - 1
		fmt.Fprintf(&b, "redistribution over steps (log scale): %s\n", sparkline(redist))
		fmt.Fprintf(&b, "final step redistribution share: %.1f%% of solver total (%s grew %.1fx from the first step)\n",
			100*redist[last]/s.Total[last], s.second(), s.Second[last]/math.Max(s.Second[0], 1e-12))
	}
	b.WriteString("\n(paper: method A grows to ~50% of the FMM step and ~75% of the P2NFFT step;\n method B stays at ~3% and ~2%)\n")
	return b.String()
}

// --- Figure 9: strong scaling with the three configurations -------------

// fig9Point is one x-position of Fig. 9: the total MD runtime at a rank
// count for method A, method B, and method B with the maximum-movement
// optimization.
type fig9Point struct {
	Ranks                    int
	TotalA, TotalB, TotalBMv float64
}

// fig9 sweeps rank counts for cfg's solver on cfg's machine, running the
// full MD loop and summing total solver time over all steps.
func fig9(cfg Config, rankList []int, jobs int) []fig9Point {
	variants := []string{"A", "B", "Bmv"}
	var cfgs []Config
	for _, p := range rankList {
		for _, variant := range variants {
			cc := cfg
			cc.Ranks = p
			cc.Dist = particle.DistGrid
			cc.Resort, cc.TrackMovement = variant != "A", variant == "Bmv"
			cfgs = append(cfgs, cc)
		}
	}
	results := runConfigs(jobs, cfgs)
	var out []fig9Point
	for i, p := range rankList {
		var sum [3]float64
		for j := range variants {
			for _, st := range results[i*len(variants)+j].Steps {
				sum[j] += st.Total
			}
		}
		out = append(out, fig9Point{Ranks: p, TotalA: sum[0], TotalB: sum[1], TotalBMv: sum[2]})
	}
	return out
}

// renderFig9 prints a Fig. 9 panel.
func renderFig9(solver, machine string, pts []fig9Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 (%s on %s): total parallel runtimes (virtual seconds)\n", solver, machine)
	fmt.Fprintf(&b, "%-8s %12s %12s %16s\n", "ranks", "method A", "method B", "B + max move")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8d %s %s %s\n", p.Ranks, fmtSeconds(p.TotalA), fmtSeconds(p.TotalB), fmtSeconds(p.TotalBMv))
	}
	return b.String()
}

// sparkline renders a series as a compact log-scaled ASCII strip, giving
// the terminal output a visual of each figure's curves.
func sparkline(v []float64) string {
	const glyphs = "▁▂▃▄▅▆▇█"
	if len(v) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x > 0 {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
	}
	if math.IsInf(lo, 1) || lo == hi {
		return strings.Repeat("▁", len(v))
	}
	var b strings.Builder
	for _, x := range v {
		if x <= 0 {
			b.WriteRune('▁')
			continue
		}
		f := (math.Log(x) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
		idx := int(f * float64(len([]rune(glyphs))-1))
		b.WriteRune([]rune(glyphs)[idx])
	}
	return b.String()
}
