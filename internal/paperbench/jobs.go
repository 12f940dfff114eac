package paperbench

import "repro/internal/sched"

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

// runJobs executes independent experiment jobs on the shared scheduler and
// returns the results in submission order.
func runJobs[T any](jobs []func() T) []T {
	return sched.Run(sched.Options{Workers: jobWorkers}, jobs)
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
