package main

import "sort"

// Every number this benchmark reports is HOST time or memory unless its name
// says "virtual": the virtual seconds, digests and checksums of the simulated
// machine are the invariant and are checked (each workload's check), not measured.

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric the way BENCHMARK.json lists it. Bound is set
// on end-to-end metrics only. Moves records, for a per-layer metric, which
// end-to-end metric it is predicted to move and on which workload (the
// interaction table of README.md, written before measuring).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// The three end-to-end metrics. All are lower-is-better.
const (
	metricWall  = "wall_s"
	metricHeap  = "peak_live_heap_bytes"
	metricSetup = "setup_s"
)

// The bounds are the widest the benchmark contract allows. The issue asked
// for 0.10, but on the 2-vCPU shared sandbox the reference numbers come from,
// a neighbour slows whole runs by 1.2x to 2.5x for minutes at a time, and
// what is left of that after the host-speed correction (hostspeed.go) still
// spreads ten runs by up to 17 % (README.md, "Host and steadiness"); a bound
// the host cannot repeat within would flag every change. Tighten them when
// the benchmark has a quieter home.
var endToEndDefs = []metricDef{
	{Name: metricWall, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: metricHeap, Unit: "bytes", Better: "lower", Bound: 0.25},
	{Name: metricSetup, Unit: "s", Better: "lower", Bound: 0.25},
}

// cpuLayers are the buckets a CPU profile sample can fall into (cpushare.go).
var cpuLayers = []string{
	"fmm", "pnfft", "fft", "psort", "redist", "vmpi", "rankexec", "coupling",
	"hostpar", "netmodel", "obs", "particle",
	"runtime_gc", "runtime_sched", "runtime_other", "bench",
}

const (
	movesMDFmm   = "wall_s on md-fmm"
	movesMDPnfft = "wall_s on md-pnfft"
	movesMD      = "wall_s on md-fmm, md-pnfft"
	movesMerge   = "wall_s, peak_live_heap_bytes on bigp-merge"
	movesMsg     = "wall_s on bigp-merge, then exchange-dense"
	movesNbr     = "wall_s, peak_live_heap_bytes on bigp-nbr"
	movesNbrWall = "wall_s on bigp-nbr"
	movesDense   = "wall_s, peak_live_heap_bytes on exchange-dense"
	movesCouple  = "wall_s (< 5 %) on md-fmm (resort), md-pnfft (restore)"
	movesNone    = "none (no workload uses it; probe only)"
	movesAll     = "follows wall_s on every workload"
)

// perLayerDefs builds the per-layer metric list: counts from public stats,
// spans, CPU shares, probes (ns_op + allocs_op each) and ratios.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		// Counts from public stats.
		{"vmpi.messages", "count", "lower", 0, movesMsg},
		{"vmpi.bytes", "bytes", "lower", 0, movesMsg},
		{"rankexec.parks", "count", "lower", 0, movesMsg},
		{"rankexec.wakeups", "count", "lower", 0, movesMsg},
		{"rankexec.spawned", "count", "lower", 0, movesNbr},
		{"rankexec.peak_resident", "count", "lower", 0, movesNbr},
		{"rankexec.max_runnable", "count", "lower", 0, movesMsg},
		{"rankexec.max_slots", "count", "higher", 0, movesMsg},
		{"vmpi.pool_miss_share", "ratio", "lower", 0, movesDense},
		{"vmpi.pool_high_water_bytes", "bytes", "lower", 0, movesDense},
		{"redist.peak_staged_bytes", "bytes", "lower", 0, movesDense},
		{"redist.rounds", "count", "lower", 0, movesDense},
		{"coupling.moved_share", "ratio", "lower", 0, movesCouple},
		{"coupling.fast_path_share", "ratio", "higher", 0, movesCouple},
		{"coupling.fallbacks", "count", "lower", 0, movesCouple},
		{"obs.events", "count", "lower", 0, movesAll},
		{"vmpi.ns_per_message", "ns", "lower", 0, movesMsg},
		{"host.cpu_s", "s", "lower", 0, movesAll},
		{"host.alloc_bytes", "bytes", "lower", 0, "peak_live_heap_bytes on every workload"},
		{"host.allocs", "count", "lower", 0, movesAll},
		{"host.gc_cycles", "count", "lower", 0, movesAll},
		{"host.gc_pause_s", "s", "lower", 0, movesAll},
		// Spans (traced iteration).
		{"vmpi.world_overhead_s", "s", "lower", 0, movesNbr},
		{"particle.distribute_s", "s", "lower", 0, movesMD},
		{"core.init_s", "s", "lower", 0, movesCouple},
		{"mdsim.init_s", "s", "lower", 0, movesCouple},
		{"mdsim.step_s", "s", "lower", 0, movesCouple},
		{"psort.sort_merge_s", "s", "lower", 0, movesMerge},
		{"redist.neighborhood_s", "s", "lower", 0, movesNbrWall},
		{"redist.plan_build_s", "s", "lower", 0, movesDense},
		{"redist.execute_unbounded_s", "s", "lower", 0, movesDense},
		{"redist.execute_budget_s", "s", "lower", 0, movesDense},
	}
	cpuMoves := map[string]string{
		"fmm": movesMDFmm, "pnfft": movesMDPnfft, "fft": movesMDPnfft,
		"psort": movesMerge, "redist": movesDense, "vmpi": movesMsg,
		"rankexec": movesMsg, "coupling": movesCouple, "hostpar": movesMD,
		"netmodel": movesMsg, "obs": movesAll, "particle": movesMD,
	}
	for _, l := range cpuLayers {
		m := cpuMoves[l]
		if m == "" {
			m = movesAll
		}
		defs = append(defs, metricDef{"cpu_share." + l, "ratio", "lower", 0, m})
	}
	for _, p := range probes {
		defs = append(defs,
			metricDef{p.name + ".ns_op", "ns", "lower", 0, p.moves},
			metricDef{p.name + ".allocs_op", "count", "lower", 0, p.moves})
	}
	defs = append(defs,
		metricDef{"rankexec.workers_speedup", "ratio", "higher", 0, movesMsg},
		metricDef{"hostpar.speedup", "ratio", "higher", 0, movesMD},
		metricDef{"obs.trace_overhead", "ratio", "lower", 0, movesMsg},
		metricDef{"bench.trace_overhead", "ratio", "lower", 0, "none (cost of the traced pass itself)"},
		metricDef{"md.energy_rel_err", "ratio", "lower", 0, "none (accuracy stated beside md-* rows)"},
	)
	return defs
}

// completeLayerMetrics returns a value for every per-layer metric: the
// measured one where the workload has it, zero where the layer takes no part
// in the workload (no steps on a sort workload, no plan on an MD run).
func completeLayerMetrics(measured map[string]float64) map[string]Metric {
	out := map[string]Metric{}
	for _, d := range perLayerDefs() {
		out[d.Name] = Metric{Value: measured[d.Name], Unit: d.Unit}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
