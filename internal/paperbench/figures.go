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

// Fig6Row is one bar group of Fig. 6: a solver under one initial
// distribution with method A.
type Fig6Row struct {
	Solver string
	Dist   particle.Dist
	Total  float64
	Sort   float64
	Restor float64
}

// Fig6 measures total runtimes and runtimes for sorting and restoring the
// particles for both solvers under the three initial distributions (single
// process, random, process grid), using method A. Each solver×distribution
// cell is an independent experiment scheduled on the shared worker pool;
// rows come back in the nested-loop order regardless of completion order.
func Fig6(cfg Config) []Fig6Row {
	type key struct {
		solver string
		dist   particle.Dist
	}
	var keys []key
	var cfgs []Config
	for _, solver := range Solvers() {
		for _, dist := range []particle.Dist{particle.DistSingle, particle.DistRandom, particle.DistGrid} {
			c := cfg
			c.Solver, c.Dist = solver, dist
			c.Steps, c.Thermal = 0, 0 // one solver run, paper's v0 = 0
			c.Resort, c.TrackMovement = false, false
			keys = append(keys, key{solver, dist})
			cfgs = append(cfgs, c)
		}
	}
	var rows []Fig6Row
	for i, res := range runConfigs(cfgs) {
		st := res.Steps[0]
		rows = append(rows, Fig6Row{
			Solver: keys[i].solver, Dist: keys[i].dist,
			Total: st.Total, Sort: st.Sort, Restor: st.Restore,
		})
	}
	return rows
}

// RenderFig6 prints the Fig. 6 rows as a text table.
func RenderFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: influence of the initial particle distribution (method A, virtual seconds)\n")
	fmt.Fprintf(&b, "%-8s %-15s %12s %12s %12s\n", "solver", "distribution", "total", "sort", "restore")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-15s %s %s %s\n", r.Solver, r.Dist, fmtSeconds(r.Total), fmtSeconds(r.Sort), fmtSeconds(r.Restor))
	}
	return b.String()
}

// --- Figure 7: method A vs B over the initial solve and first steps -----

// Fig7Series is one curve set of Fig. 7 for a solver and method: values at
// the initial computation (index 0) and each time step.
type Fig7Series struct {
	Solver string
	Method string // "A" or "B"
	// Redist is "Sort" (both methods); Second is "Restore" (A) or
	// "Resort" (B); Total is the solver total.
	Sort, Second, Total []float64
}

// Fig7 runs the MD loop with a uniformly random initial distribution for
// both solvers and both methods, reporting the per-step redistribution and
// total runtimes (paper Fig. 7: initial particles plus the first 8 steps).
func Fig7(cfg Config) []Fig7Series {
	type key struct{ solver, method string }
	var keys []key
	var cfgs []Config
	for _, solver := range Solvers() {
		for _, method := range []string{"A", "B"} {
			c := cfg
			c.Solver, c.Dist = solver, particle.DistRandom
			c.Resort, c.TrackMovement = method == "B", false
			keys = append(keys, key{solver, method})
			cfgs = append(cfgs, c)
		}
	}
	var out []Fig7Series
	for i, res := range runConfigs(cfgs) {
		solver, method := keys[i].solver, keys[i].method
		ser := Fig7Series{Solver: solver, Method: method}
		for _, st := range res.Steps {
			ser.Sort = append(ser.Sort, st.Sort)
			if method == "A" {
				ser.Second = append(ser.Second, st.Restore)
			} else {
				ser.Second = append(ser.Second, st.Resort)
			}
			ser.Total = append(ser.Total, st.Total)
		}
		out = append(out, ser)
	}
	return out
}

// RenderFig7 prints the Fig. 7 series.
func RenderFig7(series []Fig7Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: method A vs B over the initial solve and the first time steps\n")
	fmt.Fprintf(&b, "(random initial distribution; virtual seconds; step 0 = initial particles)\n")
	for _, s := range series {
		second := "restore"
		if s.Method == "B" {
			second = "resort"
		}
		fmt.Fprintf(&b, "\n%s / method %s\n%-6s %12s %12s %12s\n", s.Solver, s.Method, "step", "sort", second, "total")
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
	// first time step.
	for _, solver := range Solvers() {
		var a, bb float64
		for _, s := range series {
			if s.Solver == solver && len(s.Total) > 1 {
				if s.Method == "A" {
					a = s.Total[1]
				} else {
					bb = s.Total[1]
				}
			}
		}
		if a > 0 {
			fmt.Fprintf(&b, "\n%s: method B total in first step = %.0f%% of method A (paper: ~45%% FMM, ~20%% P2NFFT)\n",
				solver, 100*bb/a)
		}
	}
	return b.String()
}

// --- Figure 8: long simulations, process-grid initial distribution ------

// Fig8Series is one curve pair of Fig. 8: the redistribution cost (sort +
// restore for A, sort + resort for B) and the total, per time step. Sort
// and Second (restore or resort) are also kept separately.
type Fig8Series struct {
	Solver string
	Method string
	Sort   []float64
	Second []float64
	Redist []float64
	Total  []float64
}

// Fig8 runs longer MD simulations from the process-grid initial
// distribution. As particles drift away from the initial decomposition,
// method A's redistribution cost grows while method B's stays flat.
func Fig8(cfg Config) []Fig8Series {
	type key struct{ solver, method string }
	var keys []key
	var cfgs []Config
	for _, solver := range Solvers() {
		for _, method := range []string{"A", "B"} {
			c := cfg
			c.Solver, c.Dist = solver, particle.DistGrid
			c.Resort, c.TrackMovement = method == "B", false
			keys = append(keys, key{solver, method})
			cfgs = append(cfgs, c)
		}
	}
	var out []Fig8Series
	for k, res := range runConfigs(cfgs) {
		solver, method := keys[k].solver, keys[k].method
		ser := Fig8Series{Solver: solver, Method: method}
		for i, st := range res.Steps {
			if i == 0 {
				continue // Fig. 8 plots time steps only
			}
			second := st.Restore
			if method == "B" {
				second = st.Resort
			}
			ser.Sort = append(ser.Sort, st.Sort)
			ser.Second = append(ser.Second, second)
			ser.Redist = append(ser.Redist, st.Sort+second)
			ser.Total = append(ser.Total, st.Total)
		}
		out = append(out, ser)
	}
	return out
}

// RenderFig8 prints sampled points of the Fig. 8 series plus the paper's
// end-of-run redistribution share.
func RenderFig8(series []Fig8Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: redistribution cost over a long simulation (process-grid initial distribution)\n")
	for _, s := range series {
		second := "restore"
		if s.Method == "B" {
			second = "resort"
		}
		fmt.Fprintf(&b, "\n%s / method %s (virtual seconds)\n%-6s %12s %12s %12s %12s %8s\n",
			s.Solver, s.Method, "step", "sort", second, "redist", "total", "share")
		n := len(s.Total)
		stride := n / 10
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < n; i += stride {
			fmt.Fprintf(&b, "%-6d %s %s %s %s %7.1f%%\n", i+1,
				fmtSeconds(s.Sort[i]), fmtSeconds(s.Second[i]),
				fmtSeconds(s.Redist[i]), fmtSeconds(s.Total[i]),
				100*s.Redist[i]/s.Total[i])
		}
		last := n - 1
		fmt.Fprintf(&b, "redistribution over steps (log scale): %s\n", sparkline(s.Redist))
		fmt.Fprintf(&b, "final step redistribution share: %.1f%% of solver total (%s grew %.1fx from the first step)\n",
			100*s.Redist[last]/s.Total[last], second, s.Second[last]/math.Max(s.Second[0], 1e-12))
	}
	b.WriteString("\n(paper: method A grows to ~50% of the FMM step and ~75% of the P2NFFT step;\n method B stays at ~3% and ~2%)\n")
	return b.String()
}

// --- Figure 9: strong scaling with the three configurations -------------

// Fig9Point is one x-position of Fig. 9: the total MD runtime at a rank
// count for method A, method B, and method B with the maximum-movement
// optimization.
type Fig9Point struct {
	Ranks                    int
	TotalA, TotalB, TotalBMv float64
}

// Fig9 sweeps rank counts for one solver on one machine, running the full
// MD loop and summing total solver time over all steps.
func Fig9(cfg Config, solver string, rankList []int) []Fig9Point {
	variants := []string{"A", "B", "Bmv"}
	var cfgs []Config
	for _, p := range rankList {
		for _, variant := range variants {
			cc := cfg
			cc.Ranks = p
			cc.Solver, cc.Dist = solver, particle.DistGrid
			cc.Resort, cc.TrackMovement = variant != "A", variant == "Bmv"
			cfgs = append(cfgs, cc)
		}
	}
	results := runConfigs(cfgs)
	var out []Fig9Point
	for i, p := range rankList {
		pt := Fig9Point{Ranks: p}
		for j, variant := range variants {
			sum := 0.0
			for _, st := range results[i*len(variants)+j].Steps {
				sum += st.Total
			}
			switch variant {
			case "A":
				pt.TotalA = sum
			case "B":
				pt.TotalB = sum
			case "Bmv":
				pt.TotalBMv = sum
			}
		}
		out = append(out, pt)
	}
	return out
}

// RenderFig9 prints a Fig. 9 panel.
func RenderFig9(solver, machine string, pts []Fig9Point) string {
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
