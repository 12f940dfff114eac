package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/vmpi"
)

// heapSampler tracks the maximum of the runtime's live-heap figure (bytes
// marked live by the last completed GC cycle) while an iteration runs: the
// number that caps ranks and particles per host.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if v := readLiveHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and folds in a last reading.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	if v := readLiveHeap(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// hostCounters are the process-level counters read around an iteration.
type hostCounters struct {
	cpuSeconds float64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    uint64
}

func readHostCounters() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	cpu := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	return hostCounters{cpu, ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
}

// iterOpts varies how one iteration runs; the zero value is the measured
// configuration (Workers 0, default engine, no tracing of any kind).
type iterOpts struct {
	workers  int     // vmpi.Config.Workers
	msgTrace bool    // vmpi.Config.Trace
	tr       *tracer // harness spans
	profile  bool    // record a CPU profile around vmpi.Run
}

// iterResult is everything one iteration yields.
type iterResult struct {
	wall     float64 // seconds in vmpi.Run
	peakHeap float64
	virtual  Virtual
	// layer holds the per-layer counts this iteration produced.
	layer   map[string]float64
	profile []byte
	// runSpan is the iteration's vmpi.Run span id when traced.
	runSpan int
	err     error
}

// safeRun converts a panicking world (a rank panic, a deadlock verdict) into
// an error: a failed operation, not a dead benchmark.
func safeRun(cfg vmpi.Config, body func(c *vmpi.Comm)) (st *vmpi.Stats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("world failed: %v", p)
		}
	}()
	return vmpi.Run(cfg, body), nil
}

// runIteration runs one world of inst and checks it. Only vmpi.Run is inside
// the timed window; the collection before it (which resets the live-heap
// baseline), the counter reads and the checks are outside.
func runIteration(inst instance, o iterOpts) iterResult {
	res := iterResult{runSpan: noSpan}
	cfg := inst.world()
	cfg.Workers = o.workers
	cfg.Trace = o.msgTrace

	runtime.GC()
	vmpi.ResetPoolStats()
	// The pool's in-use meter drifts (buffers built with make and released
	// by their receiver are never counted in), so the high-water mark is
	// read relative to where this iteration starts.
	poolBase := vmpi.PoolStatsSnapshot().InUseBytes
	before := readHostCounters()
	iterSpan := o.tr.begin(noSpan, "iteration", "bench", -1)
	var prof bytes.Buffer
	if o.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.err = fmt.Errorf("cpu profile: %w", err)
			return res
		}
	}
	sampler := startHeapSampler()
	res.runSpan = o.tr.openWorld(iterSpan, cfg.Ranks)
	body := inst.body(o.tr)
	t0 := time.Now()
	st, err := safeRun(cfg, body)
	res.wall = time.Since(t0).Seconds()
	overhead := o.tr.closeWorld()
	res.peakHeap = float64(sampler.finish())
	if o.profile {
		pprof.StopCPUProfile()
		res.profile = prof.Bytes()
	}
	after := readHostCounters()
	pool := vmpi.PoolStatsSnapshot()
	if err != nil {
		o.tr.end(iterSpan)
		res.err = err
		return res
	}

	verifySpan := o.tr.begin(iterSpan, "verify", "bench", -1)
	virtual, layer, err := inst.check(st)
	o.tr.end(verifySpan)
	o.tr.end(iterSpan)
	virtual.Messages, virtual.Bytes = st.TotalMessages(), st.TotalBytes()
	res.virtual, res.err = virtual, err
	if layer == nil {
		layer = map[string]float64{}
	}
	res.layer = layer
	layer["vmpi.messages"] = float64(virtual.Messages)
	layer["vmpi.bytes"] = float64(virtual.Bytes)
	if virtual.Messages > 0 {
		layer["vmpi.ns_per_message"] = res.wall * 1e9 / float64(virtual.Messages)
	}
	if ex := st.Exec; ex != nil {
		layer["rankexec.parks"] = float64(ex.Parks)
		layer["rankexec.wakeups"] = float64(ex.Wakeups)
		layer["rankexec.spawned"] = float64(ex.Spawned)
		layer["rankexec.peak_resident"] = float64(ex.PeakResident)
		layer["rankexec.max_runnable"] = float64(ex.MaxRunnable)
		layer["rankexec.max_slots"] = float64(ex.MaxSlots)
	}
	if pool.Gets > 0 {
		layer["vmpi.pool_miss_share"] = float64(pool.Misses) / float64(pool.Gets)
	}
	layer["vmpi.pool_high_water_bytes"] = float64(pool.HighWaterBytes - poolBase)
	events := 0
	for _, evs := range st.Events.ByRank {
		events += len(evs)
	}
	layer["obs.events"] = float64(events)
	layer["host.cpu_s"] = after.cpuSeconds - before.cpuSeconds
	layer["host.alloc_bytes"] = float64(after.allocBytes - before.allocBytes)
	layer["host.allocs"] = float64(after.allocs - before.allocs)
	layer["host.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	layer["host.gc_pause_s"] = float64(after.gcPause-before.gcPause) / 1e9
	if o.tr != nil {
		layer["vmpi.world_overhead_s"] = overhead
	}
	return res
}

// Dist summarises the per-iteration samples of one end-to-end metric. A
// batch simulator has no user-facing tail, so the quartiles carry the spread.
type Dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	// Samples are the values in the order measured; -compare uses them to
	// decide whether two run sets overlap.
	Samples []float64 `json:"samples"`
}

func summarise(samples []float64, unit string) Dist {
	d := Dist{N: len(samples), Unit: unit, Samples: samples}
	if len(samples) == 0 {
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.Min, d.Max = s[0], s[len(s)-1]
	d.Q1, d.Median, d.Q3 = quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
	return d
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 { return summarise(v, "").Median }
