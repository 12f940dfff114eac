package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkFile is BENCHMARK.json: the contract this harness is run under
// and the source of the regression bounds -compare applies.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one end-to-end metric × workload pair.
const (
	verdictAgree      = "agree"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares run set b against run set a of a lower-is-better metric.
// The pair is unresolved when the spread between a set's own runs (the
// distance between its quartiles over its median) is wider than the bound
// and the two sets overlap: then neither "no worse" nor "worse" is shown.
// Otherwise it regressed when b's median is worse than a's by more than the
// bound, and agrees when it is not.
func judge(a, b Dist, bound float64) (rel float64, verdict string) {
	rel = (b.Median - a.Median) / a.Median
	spread := math.Max((a.Q3-a.Q1)/a.Median, (b.Q3-b.Q1)/b.Median)
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case spread > bound && overlap:
		return rel, verdictUnresolved
	case rel > bound:
		return rel, verdictRegressed
	}
	return rel, verdictAgree
}

// exactValues lists the values of a workload report that repeat exactly and
// therefore compare exactly: the virtual result and the exact counts. The
// Workers=1 park count exists on traced reports only.
func exactValues(w WorkloadReport) map[string]string {
	out := map[string]string{
		"virtual.digest":  w.Virtual.Digest,
		"virtual.seconds": w.Virtual.VirtualBits,
		"vmpi.messages":   fmt.Sprint(w.Virtual.Messages),
		"vmpi.bytes":      fmt.Sprint(w.Virtual.Bytes),
	}
	if m, ok := w.PerLayer["rankexec.parks"]; ok {
		out["rankexec.parks"] = fmt.Sprint(m.Value)
	}
	return out
}

// compareReports prints, for every end-to-end metric × workload, both
// medians with their quartiles, the relative difference and the verdict
// against the bounds in BENCHMARK.json. It returns false when anything
// regressed, when b fails a higher share of its operations, or when an exact
// value differs without being named in allowed.
func compareReports(out io.Writer, a, b Report, bf benchmarkFile, allowed map[string]bool) bool {
	ok := true
	byName := map[string]WorkloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(out, "%-15s %-21s %36s %36s %8s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "diff", "verdict")
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			fmt.Fprintf(out, "%-15s missing from B\n", wa.Name)
			ok = false
			continue
		}
		for _, m := range bf.EndToEnd {
			da, db := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if da.N == 0 || db.N == 0 {
				fmt.Fprintf(out, "%-15s %-21s no samples\n", wa.Name, m.Name)
				ok = false
				continue
			}
			rel, verdict := judge(da, db, m.Bound)
			if verdict == verdictRegressed {
				ok = false
			}
			fmt.Fprintf(out, "%-15s %-21s %36s %36s %+7.1f%%  %s (bound %.0f%%)\n",
				wa.Name, m.Name, formatDist(da), formatDist(db), 100*rel, verdict, 100*m.Bound)
		}
		fa, fb := failShare(wa), failShare(wb)
		fmt.Fprintf(out, "%-15s %-21s %36s %36s\n", wa.Name, "failed/attempted",
			fmt.Sprintf("%d/%d", wa.Failed, wa.Attempted), fmt.Sprintf("%d/%d", wb.Failed, wb.Attempted))
		if fb > fa {
			fmt.Fprintf(out, "%-15s B fails a higher share of its operations\n", wa.Name)
			ok = false
		}
		ea, eb := exactValues(wa), exactValues(wb)
		for _, name := range sortedKeys(ea) {
			vb, both := eb[name]
			if !both || ea[name] == vb {
				continue
			}
			note := "differs"
			if allowed[name] {
				note = "differs (named, allowed)"
			} else {
				ok = false
			}
			fmt.Fprintf(out, "%-15s %-21s %36s %36s  %s\n", wa.Name, name, ea[name], vb, note)
		}
	}
	return ok
}

func failShare(w WorkloadReport) float64 {
	if w.Attempted == 0 {
		return 1
	}
	return float64(w.Failed) / float64(w.Attempted)
}

func formatDist(d Dist) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", d.Median, d.Q1, d.Q3, d.N)
}

// runCompare is the -compare mode.
func runCompare(pathA, pathB, benchmarkPath, allow string) error {
	var a, b Report
	var bf benchmarkFile
	if err := readJSONFile(pathA, &a); err != nil {
		return err
	}
	if err := readJSONFile(pathB, &b); err != nil {
		return err
	}
	if err := readJSONFile(benchmarkPath, &bf); err != nil {
		return err
	}
	allowed := map[string]bool{}
	for _, name := range strings.Split(allow, ",") {
		if name != "" {
			allowed[name] = true
		}
	}
	if !compareReports(os.Stdout, a, b, bf, allowed) {
		return fmt.Errorf("compare: B is worse than A (see above)")
	}
	return nil
}
