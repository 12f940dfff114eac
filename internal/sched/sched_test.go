package sched

import (
	"testing"

	"repro/internal/hostpar"
	"repro/internal/vmpi"
)

// TestRunOrdered checks Run's slice matches submission order with fewer
// workers than jobs (jobs drain through the feed channel in waves).
func TestRunOrdered(t *testing.T) {
	const n = 32
	jobs := make([]func() string, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func() string { return string(rune('a' + i%26)) }
	}
	out := Run(Options{Workers: 3}, jobs)
	if len(out) != n {
		t.Fatalf("len(out) = %d, want %d", len(out), n)
	}
	for i, s := range out {
		if want := string(rune('a' + i%26)); s != want {
			t.Fatalf("out[%d] = %q, want %q", i, s, want)
		}
	}
}

// TestEmptyAndDefaults covers the zero-job fast path and defaulted options.
func TestEmptyAndDefaults(t *testing.T) {
	if out := Run[struct{}](Options{}, nil); len(out) != 0 {
		t.Fatalf("out = %v on empty jobs", out)
	}
	out := Run(Options{}, []func() bool{func() bool { return true }})
	if len(out) != 1 || !out[0] {
		t.Fatalf("out = %v", out)
	}
}

// TestSharedBudgetWholeAfterNestedRun checks the host-budget contract end
// to end: scheduler jobs each run a virtual machine with a budget-drawn
// executor whose ranks enter hostpar.For between barriers, then a For of
// their own, so all three consumers of hostpar.SharedBudget — a job's
// unit, the executor's extra run slots, For's tile helpers — acquire and
// release side by side. Once the jobs return, every unit must be free
// again. The check reads the process-wide budget, so no test in this
// package may call t.Parallel.
func TestSharedBudgetWholeAfterNestedRun(t *testing.T) {
	const nJobs, ranks, steps = 6, 16, 4
	kernel := func(acc []int) {
		hostpar.For(len(acc), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				acc[i] += i
			}
		})
	}
	jobs := make([]func() int, nJobs)
	for j := range jobs {
		jobs[j] = func() int {
			vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
				acc := make([]int, 64)
				for s := 0; s < steps; s++ {
					kernel(acc)
					vmpi.Barrier(c)
				}
			})
			// Here the job's executor has returned its extras, so the
			// job's own parallel section can find free units.
			kernel(make([]int, 64))
			return j
		}
	}
	Run(Options{}, jobs)

	b := hostpar.SharedBudget()
	free := 0
	for free < b.Capacity() && b.TryAcquire() {
		free++
	}
	for i := 0; i < free; i++ {
		b.Release()
	}
	if free != b.Capacity() {
		t.Fatalf("%d of %d shared budget units free after the run", free, b.Capacity())
	}
}
