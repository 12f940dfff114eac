package sched

import (
	"testing"

	"repro/internal/hostpar"
	"repro/internal/vmpi"
)

// TestStreamOrderedCollection forces jobs to complete in reverse submission
// order and checks that emit still sees results in submission order. The
// completion order is controlled by channels, not timers: job i blocks until
// job i+1 has finished, so with enough workers the actual finish order is
// n-1, n-2, …, 0 — the worst case for ordered collection.
func TestStreamOrderedCollection(t *testing.T) {
	const n = 8
	gates := make([]chan struct{}, n+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	close(gates[n]) // the last job runs unblocked

	jobs := make([]func() int, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func() int {
			<-gates[i+1] // wait for the next job to finish first
			close(gates[i])
			return i * i
		}
	}

	// Workers (and the budget) must cover all jobs at once or the reverse
	// chain deadlocks, so the test supplies its own capacity-n budget
	// instead of the shared one sized to this host's core count.
	var got []int
	var idx []int
	Stream(Options{Workers: n, Budget: hostpar.NewBudget(n)}, jobs, func(i int, r int) {
		idx = append(idx, i)
		got = append(got, r)
	})

	for i := 0; i < n; i++ {
		if idx[i] != i {
			t.Fatalf("emit order: got index %d at position %d", idx[i], i)
		}
		if got[i] != i*i {
			t.Fatalf("result %d: got %d, want %d", i, got[i], i*i)
		}
	}
}

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

// TestMetrics checks the injected clock drives QueueSeconds/RunSeconds and
// that OnDone fires exactly once per job.
func TestMetrics(t *testing.T) {
	var ticks int64
	now := func() int64 { ticks += 1e9; return ticks } // each read = 1 virtual second
	jobs := []func() int{func() int { return 1 }, func() int { return 2 }}
	seen := map[int]Metrics{}
	out := Run(Options{Workers: 1, Now: now, OnDone: func(m Metrics) {
		if _, dup := seen[m.Index]; dup {
			t.Fatalf("OnDone fired twice for job %d", m.Index)
		}
		seen[m.Index] = m
	}}, jobs)
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("results = %v", out)
	}
	if len(seen) != 2 {
		t.Fatalf("OnDone fired %d times, want 2", len(seen))
	}
	for i, m := range seen {
		if m.RunSeconds != 1 {
			t.Fatalf("job %d RunSeconds = %v, want 1", i, m.RunSeconds)
		}
		if m.QueueSeconds <= 0 {
			t.Fatalf("job %d QueueSeconds = %v, want > 0", i, m.QueueSeconds)
		}
	}
}

// TestEmptyAndDefaults covers the zero-job fast path and defaulted options.
func TestEmptyAndDefaults(t *testing.T) {
	Stream(Options{}, nil, func(int, struct{}) { t.Fatal("emit on empty jobs") })
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
