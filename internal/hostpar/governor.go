package hostpar

import "runtime"

// Budget is a host-compute budget: a counting semaphore over units of host
// CPU shared by every consumer of host parallelism in the process. Three
// consumers exist today, with deliberately different acquisition styles:
//
//   - For (this package) try-acquires a unit for each idle worker it
//     recruits, runs the tiles on the caller alone when none is free, and
//     returns every unit before it returns, so a parallel section can never
//     deadlock and never pushes the process past the budget. The solver
//     kernels and the replayed sorting-network steps of vmpi
//     (Replayer.Group) are its callers.
//   - The experiment scheduler (internal/sched) block-acquires one unit per
//     running job — an experiment is a full virtual machine worth of
//     compute — so queued jobs wait for capacity instead of oversubscribing.
//   - The rank executor (internal/rankexec, behind vmpi.Run) try-acquires
//     extra run slots while runnable ranks are queued and returns them as
//     the queue drains; its one base slot never comes from the budget.
//
// Sharing one budget is what keeps nested parallelism bounded: N concurrent
// experiments × M ranks × hostpar tiles all draw from the same pool of
// NumCPU units, so the process runs at most ~NumCPU compute goroutines no
// matter how the layers stack. None of this is observable in virtual
// results: the budget only decides where host work executes.
type Budget struct {
	sem chan struct{}
}

// newBudget creates a budget of the given capacity (at least 1).
func newBudget(capacity int) *Budget {
	return &Budget{sem: make(chan struct{}, maxInt(capacity, 1))}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Capacity returns the budget's total unit count.
func (b *Budget) Capacity() int { return cap(b.sem) }

// Acquire blocks until a unit is available and claims it. Callers that hold
// a unit across arbitrary work (the scheduler's jobs) must not block-acquire
// further units from within that work, or the budget can deadlock; use
// TryAcquire there.
func (b *Budget) Acquire() { b.sem <- struct{}{} }

// TryAcquire claims a unit if one is free, without blocking.
func (b *Budget) TryAcquire() bool {
	select {
	case b.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a claimed unit.
func (b *Budget) Release() { <-b.sem }

// shared is the process-wide budget, sized to the host's core count. For's
// recruited workers, the experiment scheduler and the rank executor's extra
// run slots all draw from it.
var shared = newBudget(runtime.NumCPU())

// SharedBudget returns the process-wide host-compute budget.
func SharedBudget() *Budget { return shared }
