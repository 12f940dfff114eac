package main

import (
	"fmt"
	"runtime"
	"time"
)

// Load shape: closed loop, one client — one vmpi.Run world at a time,
// iterations back to back, in this one process, at GOMAXPROCS min(nproc, 4)
// with vmpi.Config.Workers 0 and the default event engine: the configuration
// every canonical invocation of the repository runs.

// warmups is the number of untimed iterations in set-up. They fill the vmpi
// buffer pool, the fft and far-field plan caches and the shared psort merge
// schedules, so work a later change moves into a cache build shows in
// setup_s and not in wall_s.
const warmups = 2

// minTimed is the fewest timed iterations a run reports a median over.
const minTimed = 3

// runOpts is what the command line chose.
type runOpts struct {
	seed    int64
	seconds float64
	quick   bool
	traced  bool
}

// WorkloadReport is one workload's part of the report.
type WorkloadReport struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Seed      int64  `json:"seed"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	// Failures says what went wrong with each failed operation.
	Failures []string `json:"failures,omitempty"`
	// EndToEnd holds wall_s, peak_live_heap_bytes and setup_s, measured
	// with tracing off. The two times are in seconds of the quiet reference
	// host (hostspeed.go); AsMeasured holds the same samples as the clock
	// read them, and host_s, the reference kernel's readings beside them
	// (the first is set-up's).
	EndToEnd   map[string]Dist `json:"end_to_end"`
	AsMeasured map[string]Dist `json:"as_measured"`
	// WorkPerSecond is the stated input size over the median wall_s.
	WorkPerSecond Metric `json:"work_per_second"`
	// Virtual is the checked invariant; Expected says whether it was also
	// compared with the values pinned in expected.json.
	Virtual  Virtual `json:"virtual"`
	Expected bool    `json:"checked_against_expected"`
	// PerLayer is present on traced runs only.
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
	// layer collects the traced pass's raw values until finishTraced adds
	// the probes and fills PerLayer.
	layer map[string]float64
	// SpanCoverage is the share of the traced vmpi.Run span its child
	// spans cover.
	SpanCoverage float64 `json:"span_coverage,omitempty"`
}

// runner measures one workload.
type runner struct {
	def    workloadDef
	inst   instance
	rep    *WorkloadReport
	first  *Virtual // the first iteration's virtual result
	pinned *Virtual // expected.json's, when it applies
}

// iterate runs one iteration as an operation: attempted, checked against
// the first iteration and the pinned values, counted as failed otherwise.
func (r *runner) iterate(label string, o iterOpts) (iterResult, bool) {
	res := runIteration(r.inst, o)
	r.rep.Attempted++
	err := res.err
	if err == nil {
		err = r.compareVirtual(res.virtual)
	}
	if err != nil {
		r.rep.Failed++
		r.rep.Failures = append(r.rep.Failures, fmt.Sprintf("%s: %v", label, err))
		return res, false
	}
	return res, true
}

func (r *runner) compareVirtual(v Virtual) error {
	if r.first == nil {
		r.first = &v
		r.rep.Virtual = v
	} else if v != *r.first {
		return fmt.Errorf("virtual result %+v differs from the first iteration's %+v", v, *r.first)
	}
	if r.pinned != nil && v != *r.pinned {
		return fmt.Errorf("virtual result %+v differs from expected.json's %+v", v, *r.pinned)
	}
	return nil
}

// measureWorkload runs set-up, the timed iterations and, when asked, the
// traced pass for one workload.
func measureWorkload(def workloadDef, opts runOpts, spans *[]Span) WorkloadReport {
	rep := WorkloadReport{Name: def.Name, Why: def.Why, Seed: opts.seed, EndToEnd: map[string]Dist{}}
	r := &runner{def: def, rep: &rep}
	if opts.seed == defaultSeed && !opts.quick {
		if v, ok := expected[def.Name]; ok {
			r.pinned, rep.Expected = &v, true
		}
	}

	setupStart := time.Now()
	r.inst = def.prepare(opts.seed, opts.quick)
	nWarm := warmups
	if opts.quick {
		nWarm = 0
	}
	for i := 0; i < nWarm; i++ {
		r.iterate(fmt.Sprintf("warm-up %d", i), iterOpts{})
	}
	setup := time.Since(setupStart).Seconds()
	// The reference kernel is read after set-up and after every world, so
	// each iteration has a reading on either side of it (hostspeed.go).
	// Set-up has the one after it: a reading taken first thing in a process
	// comes out up to twice too slow.
	host := hostSeconds(opts.quick)
	setupHost := host
	around := func() float64 {
		before := host
		host = hostSeconds(opts.quick)
		return (before + host) / 2
	}

	// In a traced run the timed iterations only anchor the ratios; most of
	// the time goes to the traced pass.
	budget := opts.seconds
	if opts.traced {
		budget /= 3
	}
	floor := minTimed
	if opts.quick {
		floor = 1
	}
	var walls, rawWalls, hosts, heaps []float64
	var layers []map[string]float64
	// The run ends when another iteration would not fit in what is left,
	// so that a slow host stretches no run past its budget.
	timedStart := time.Now()
	longest := 0.0
	for n := 0; n < floor || (!opts.quick && time.Since(timedStart).Seconds()+longest < budget); n++ {
		iterStart := time.Now()
		res, ok := r.iterate(fmt.Sprintf("iteration %d", n), iterOpts{})
		h := around()
		if ok {
			walls = append(walls, quietSeconds(res.wall, h, def.HostShare))
			rawWalls = append(rawWalls, res.wall)
			hosts = append(hosts, h)
			heaps = append(heaps, res.peakHeap)
			layers = append(layers, res.layer)
		}
		longest = max(longest, time.Since(iterStart).Seconds())
	}
	rep.EndToEnd[metricWall] = summarise(walls, "s")
	rep.EndToEnd[metricHeap] = summarise(heaps, "bytes")
	rep.EndToEnd[metricSetup] = summarise([]float64{quietSeconds(setup, setupHost, def.HostShare)}, "s")
	rep.AsMeasured = map[string]Dist{
		metricWall:  summarise(rawWalls, "s"),
		metricSetup: summarise([]float64{setup}, "s"),
		"host_s":    summarise(append([]float64{setupHost}, hosts...), "s"),
	}
	if w := rep.EndToEnd[metricWall].Median; w > 0 {
		rep.WorkPerSecond = Metric{Value: r.inst.work() / w, Unit: def.WorkUnit}
	}

	if opts.traced && len(walls) > 0 {
		r.tracedPass(median(rawWalls), layers, spans)
	}
	rep.Correct = rep.Failed == 0 && len(walls) > 0
	return rep
}

// tracedPass produces the workload's own per-layer metrics: the counts of
// the untraced iterations, one iteration with spans and a CPU profile, one at
// Workers=1 for the exact executor counts, and the ratio runs. The probes do
// not depend on the workload; finishTraced runs them once per process.
func (r *runner) tracedPass(untracedWall float64, untraced []map[string]float64, spans *[]Span) {
	layer := map[string]float64{}
	// Counts: medians over the untraced iterations (the exact ones repeat).
	for _, name := range sortedKeys(untraced[0]) {
		vals := make([]float64, len(untraced))
		for i, m := range untraced {
			vals[i] = m[name]
		}
		layer[name] = median(vals)
	}

	// One iteration with spans and a CPU profile.
	tr := newTracer(r.def.Name)
	if res, ok := r.iterate("traced iteration", iterOpts{tr: tr, profile: true}); ok {
		layer["bench.trace_overhead"] = res.wall / untracedWall
		layer["vmpi.world_overhead_s"] = res.layer["vmpi.world_overhead_s"]
		spanMetrics(tr, res.runSpan, layer)
		r.rep.SpanCoverage = tr.coverage(res.runSpan)
		shares, err := cpuShares(res.profile)
		if err != nil {
			r.fail("cpu profile", err)
		}
		for k, v := range shares {
			layer[k] = v
		}
	}
	*spans = append(*spans, tr.spans...)

	// Workers=1 makes the executor counts exact; Workers=min(nproc,4)
	// against it is what the sharded executor buys.
	var oneWorker float64
	if res, ok := r.iterate("Workers=1 iteration", iterOpts{workers: 1}); ok {
		oneWorker = res.wall
		for _, k := range []string{"rankexec.parks", "rankexec.wakeups", "rankexec.spawned",
			"rankexec.peak_resident", "rankexec.max_runnable", "rankexec.max_slots"} {
			layer[k] = res.layer[k]
		}
	}
	if res, ok := r.iterate("Workers=N iteration", iterOpts{workers: runtime.GOMAXPROCS(0)}); ok && oneWorker > 0 {
		layer["rankexec.workers_speedup"] = oneWorker / res.wall
	}
	// GOMAXPROCS=1 is the plain single-threaded baseline.
	procs := runtime.GOMAXPROCS(1)
	res, ok := r.iterate("GOMAXPROCS=1 iteration", iterOpts{})
	runtime.GOMAXPROCS(procs)
	if ok {
		layer["hostpar.speedup"] = res.wall / untracedWall
	}
	// vmpi's own message tracing, on against off.
	if res, ok := r.iterate("vmpi.Config.Trace iteration", iterOpts{msgTrace: true}); ok {
		layer["obs.trace_overhead"] = res.wall / untracedWall
	}
	if md, ok := r.inst.(*mdInstance); ok {
		r.rep.Attempted++
		relErr, err := md.energyError()
		if err != nil {
			r.fail("energy check", err)
		}
		layer["md.energy_rel_err"] = relErr
	}

	r.rep.layer = layer
}

// finishTraced runs the layer probes once and completes every traced
// report's per-layer metrics. Each probe is an operation of every report it
// is printed in.
func finishTraced(reports []WorkloadReport, quick bool) {
	probed, errs := probeMetrics(quick)
	for i := range reports {
		rep := &reports[i]
		if rep.layer == nil {
			continue
		}
		rep.Attempted += len(probes)
		for _, err := range errs {
			rep.Failed++
			rep.Failures = append(rep.Failures, err.Error())
		}
		for k, v := range probed {
			rep.layer[k] = v
		}
		rep.PerLayer = completeLayerMetrics(rep.layer)
		rep.Correct = rep.Correct && len(errs) == 0
	}
}

func (r *runner) fail(what string, err error) {
	r.rep.Failed++
	r.rep.Failures = append(r.rep.Failures, fmt.Sprintf("%s: %v", what, err))
}

// spanMetrics turns the rank-0 spans under the vmpi.Run span into the span
// metrics: the total per name, or the median where a name repeats per step.
func spanMetrics(tr *tracer, runSpan int, layer map[string]float64) {
	byName := map[string][]float64{}
	for _, s := range tr.children(runSpan) {
		byName[s.Name] = append(byName[s.Name], s.seconds())
	}
	sum := func(v []float64) float64 {
		t := 0.0
		for _, x := range v {
			t += x
		}
		return t
	}
	for name, metric := range map[string]string{
		"particle.Distribute":         "particle.distribute_s",
		"core.Init":                   "core.init_s",
		"Sim.Init":                    "mdsim.init_s",
		"psort.SortMerge":             "psort.sort_merge_s",
		"redist.ExchangeNeighborhood": "redist.neighborhood_s",
		"redist.NewPlan":              "redist.plan_build_s",
		"redist.Execute.unbounded":    "redist.execute_unbounded_s",
		"redist.Execute.budget":       "redist.execute_budget_s",
	} {
		if v := byName[name]; len(v) > 0 {
			layer[metric] = sum(v)
		}
	}
	if v := byName["Sim.Step"]; len(v) > 0 {
		layer["mdsim.step_s"] = median(v)
	}
}
