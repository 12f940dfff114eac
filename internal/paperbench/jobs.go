package paperbench

import (
	"time"

	"repro/internal/hostpar"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/vmpi"
)

// The figure functions run their experiments — one vmpi virtual machine per
// figure row, curve, or sweep point — through the experiment scheduler
// (internal/sched). Experiments are independent (a Run call shares no
// mutable state with another), results are collected in submission order,
// and the assembled figures are byte-identical at any worker count; only
// the host wall-clock time changes.

// jobWorkers is the scheduler worker count; values below 1 select the
// shared host-compute budget's capacity. Set once at startup (the
// paperbench -j flag) before any figure function runs.
var jobWorkers int

// SetJobs sets how many experiments the figure functions run concurrently
// (the paperbench -j flag). n below 1 selects the host's core count. The
// setting affects wall-clock time only; figure output is identical at any
// value.
func SetJobs(n int) { jobWorkers = n }

// execWorkers is the executor run-slot count threaded into every
// experiment's vmpi.Config (the paperbench -workers flag). Zero keeps the
// engine default: one slot plus host-budget extras. Figure bytes are
// identical at any value — CI proves it by diffing the large-P golden at
// -workers 4 against the checked-in baseline.
var execWorkers int

// SetEngineWorkers fixes the executor's run-slot count for every
// experiment (the paperbench -workers flag). n below 1 restores the
// engine default. The setting affects wall-clock time only; figure output
// is identical at any value.
func SetEngineWorkers(n int) {
	if n < 0 {
		n = 0
	}
	execWorkers = n
}

// EngineWorkers returns the configured executor run-slot count (0 =
// engine default).
func EngineWorkers() int { return execWorkers }

// Jobs returns the effective scheduler worker count: the SetJobs value, or
// the shared host-compute budget's capacity when none was set.
func Jobs() int {
	if jobWorkers >= 1 {
		return jobWorkers
	}
	return hostpar.SharedBudget().Capacity()
}

// Scheduler metrics are surfaced as obs counter events in a host-side
// buffer, separate from any virtual machine's event log: per-job host
// wall-clock quantities must never appear in the golden observability
// exports, whose bytes may not depend on -j.
const (
	// JobCounter counts completed experiment jobs.
	JobCounter = "sched/jobs"
	// JobQueueCounter accumulates per-job queueing time (seconds a job
	// waited for a worker and a host-compute budget unit).
	JobQueueCounter = "sched/queue_seconds"
	// JobRunCounter accumulates per-job host run time in seconds.
	JobRunCounter = "sched/run_seconds"
)

// Executor meters, accumulated per experiment run. Counters sum across
// runs; the *_max gauges are per-run high-water marks.
const (
	ExecParksCounter      = "vmpi/exec/parks"
	ExecWakeupsCounter    = "vmpi/exec/wakeups"
	ExecSpawnedCounter    = "vmpi/exec/spawned"
	ExecMaxRunnableGauge  = "vmpi/exec/max_runnable"
	ExecPeakResidentGauge = "vmpi/exec/peak_resident"
	ExecMaxSlotsGauge     = "vmpi/exec/max_slots"
)

// Message-buffer pool meters (process-wide snapshots, emitted as gauges).
const (
	PoolGetsGauge      = "vmpi/pool/gets"
	PoolPutsGauge      = "vmpi/pool/puts"
	PoolMissesGauge    = "vmpi/pool/misses"
	PoolWasteGauge     = "vmpi/pool/waste_bytes"
	PoolInUseGauge     = "vmpi/pool/in_use_bytes"
	PoolHighWaterGauge = "vmpi/pool/high_water_bytes"
)

// HostObs returns the process-wide host-side observability buffer that the
// scheduler, the executor meters, and the pool snapshots flow into. Its
// events are host-domain (schedule-dependent) and are never merged into a
// virtual machine's event log or the golden exports.
func HostObs() *obs.HostBuffer { return jobStats }

// recordExecStats appends one run's executor meters.
func recordExecStats(ex *vmpi.ExecStats) {
	jobStats.Counter(ExecParksCounter, float64(ex.Parks))
	jobStats.Counter(ExecWakeupsCounter, float64(ex.Wakeups))
	jobStats.Counter(ExecSpawnedCounter, float64(ex.Spawned))
	jobStats.Gauge(ExecMaxRunnableGauge, float64(ex.MaxRunnable))
	jobStats.Gauge(ExecPeakResidentGauge, float64(ex.PeakResident))
	jobStats.Gauge(ExecMaxSlotsGauge, float64(ex.MaxSlots))
}

// RecordPoolStats snapshots the vmpi message-buffer pool counters into the
// host buffer, making oversized-class waste visible alongside the bench
// reports at large rank counts.
func RecordPoolStats() {
	ps := vmpi.PoolStatsSnapshot()
	jobStats.Gauge(PoolGetsGauge, float64(ps.Gets))
	jobStats.Gauge(PoolPutsGauge, float64(ps.Puts))
	jobStats.Gauge(PoolMissesGauge, float64(ps.Misses))
	jobStats.Gauge(PoolWasteGauge, float64(ps.WasteBytes))
	jobStats.Gauge(PoolInUseGauge, float64(ps.InUseBytes))
	jobStats.Gauge(PoolHighWaterGauge, float64(ps.HighWaterBytes))
}

var (
	jobStats  = obs.NewHostBuffer()
	jobsEpoch = time.Now()
)

// JobStats aggregates the scheduler's obs counters over a span of figure
// runs.
type JobStats struct {
	// Jobs is the number of experiments completed.
	Jobs int
	// QueueSeconds is the summed host time jobs spent queued.
	QueueSeconds float64
	// RunSeconds is the summed host time jobs spent running.
	RunSeconds float64
}

// TakeJobStats returns the scheduler statistics accumulated since the
// previous call and advances the mark, so callers can attribute jobs and
// queueing time to individual figures (benchjson does this per figure).
func TakeJobStats() JobStats {
	var st JobStats
	for _, e := range jobStats.Take() {
		if e.Kind != obs.KindCounter {
			continue
		}
		switch e.Name {
		case JobCounter:
			st.Jobs += int(e.Value)
		case JobQueueCounter:
			st.QueueSeconds += e.Value
		case JobRunCounter:
			st.RunSeconds += e.Value
		}
	}
	return st
}

// recordJob appends one completed job's metrics as counter events.
func recordJob(m sched.Metrics) {
	jobStats.Record(obs.Event{Kind: obs.KindCounter, Name: JobCounter, Value: 1})
	jobStats.Record(obs.Event{Kind: obs.KindCounter, Name: JobQueueCounter, Value: m.QueueSeconds})
	jobStats.Record(obs.Event{Kind: obs.KindCounter, Name: JobRunCounter, Value: m.RunSeconds})
}

// runJobs executes independent experiment jobs on the shared scheduler and
// returns the results in submission order. The scheduler itself never reads
// the clock; paperbench injects a monotonic one here.
func runJobs[T any](jobs []func() T) []T {
	return sched.Run(sched.Options{
		Workers: jobWorkers,
		Now:     func() int64 { return time.Since(jobsEpoch).Nanoseconds() },
		OnDone:  recordJob,
	}, jobs)
}

// runConfigs executes one experiment per configuration and returns the
// results in configuration order.
func runConfigs(cfgs []Config) []Result {
	jobs := make([]func() Result, len(cfgs))
	for i, c := range cfgs {
		c := c
		jobs[i] = func() Result { return mustRun(c) }
	}
	return runJobs(jobs)
}
