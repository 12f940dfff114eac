// Package sched runs independent experiments concurrently on a bounded
// worker pool with ordered result collection.
//
// An experiment here is a self-contained unit of work — in paperbench, one
// virtual machine run (a figure row, a rank-list sweep point, a solver or
// machine variant). Experiments share no mutable state, so the only things
// the scheduler has to guarantee are:
//
//   - Determinism: results are collected in submission order, so the output
//     assembled from them is byte-identical at any worker count. Nothing an
//     experiment computes may observe the scheduler; only wall-clock time
//     changes with -j.
//   - Bounded host load: every running job holds one unit of the shared
//     host-compute budget (hostpar.SharedBudget), the same pool hostpar's
//     tile workers draw from. Queued jobs block for a unit instead of
//     oversubscribing the host, so N jobs × M ranks × tile workers stay
//     within ~NumCPU compute goroutines.
//
// The package performs no wall-clock reads, which keeps it inside the
// determinism analyzer's hot set; host timing belongs to the caller.
//
// Jobs must not call back into sched (or block-acquire budget units): a job
// already holds a unit, and waiting for another while holding one can
// deadlock the budget. Host parallelism inside a job belongs to hostpar.For
// (the solver kernels and vmpi's replayed sorting-network steps), whose
// acquisition is non-blocking, and to the vmpi event executor (rankexec via
// vmpi.Run), which multiplexes a job's virtual ranks over one always-owned
// base slot plus try-acquired extras. All three consumers nest freely: a
// job's unit is the one guaranteed slot, and For's workers and the rank
// executor only ever soak up capacity that queued jobs are not using,
// returning it as their calls end and their queues drain.
package sched

import (
	"sync"

	"repro/internal/hostpar"
)

// Options configures a Run call.
type Options struct {
	// Workers is the maximum number of concurrently running jobs. Values
	// below 1 select the shared budget's capacity (the host's core count).
	// The worker count affects wall-clock time only, never results.
	Workers int
}

// Run executes every job on the worker pool and returns their results in
// submission order: out[i] is jobs[i]'s return value regardless of
// completion order.
func Run[T any](opt Options, jobs []func() T) []T {
	n := len(jobs)
	out := make([]T, n)
	if n == 0 {
		return out
	}
	budget := hostpar.SharedBudget()
	workers := opt.Workers
	if workers < 1 {
		workers = budget.Capacity()
	}
	if workers > n {
		workers = n
	}

	// The feed channel assigns submission indices to workers first-come
	// first-served; each result lands in its own slot, so completion order
	// never shows in out.
	feed := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			feed <- i
		}
		close(feed)
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				budget.Acquire()
				out[i] = jobs[i]()
				budget.Release()
			}
		}()
	}
	wg.Wait()
	return out
}
