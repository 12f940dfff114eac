package rankexec

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fakeBudget is a capacity-limited Budget that records peak outstanding
// acquisitions and fails loudly on over-release.
type fakeBudget struct {
	mu   sync.Mutex
	cap  int
	held int
	peak int
}

func (b *fakeBudget) TryAcquire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.held >= b.cap {
		return false
	}
	b.held++
	if b.held > b.peak {
		b.peak = b.held
	}
	return true
}

func (b *fakeBudget) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.held == 0 {
		panic("fakeBudget: over-release")
	}
	b.held--
}

func (b *fakeBudget) outstanding() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held
}

// TestAllTasksRun checks every body runs to completion under various slot
// configurations.
func TestAllTasksRun(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		var mu sync.Mutex
		ran := make([]bool, 32)
		ex := New(32, func(id int) {
			mu.Lock()
			ran[id] = true
			mu.Unlock()
		}, Options{Workers: workers})
		ex.Start()
		ex.Wait()
		for id, ok := range ran {
			if !ok {
				t.Fatalf("workers=%d: task %d did not run", workers, id)
			}
		}
	}
}

// TestConcurrencyBounded checks that no more tasks execute simultaneously
// than the slot count allows.
func TestConcurrencyBounded(t *testing.T) {
	const n, workers = 64, 3
	var mu sync.Mutex
	cur, peak := 0, 0
	var ex *Executor
	ex = New(n, func(id int) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		// Bounce through a park/unpark cycle to exercise slot recycling.
		ex.Unpark(id) // deposit token; Park returns immediately
		ex.Park(id)
		mu.Lock()
		cur--
		mu.Unlock()
	}, Options{Workers: workers})
	ex.Start()
	ex.Wait()
	if peak > workers {
		t.Fatalf("peak concurrency %d > %d slots", peak, workers)
	}
	st := ex.Snapshot()
	if st.MaxSlots > workers {
		t.Fatalf("MaxSlots %d > %d", st.MaxSlots, workers)
	}
	if st.Spawned != n {
		t.Fatalf("Spawned = %d, want %d", st.Spawned, n)
	}
	if st.PeakResident > workers {
		t.Fatalf("PeakResident %d > %d slots (lazy spawn violated)", st.PeakResident, workers)
	}
}

// TestParkUnparkNoLostWakeups stresses the wake-token protocol: a producer
// unparks consumers at arbitrary times; consumers park until a mailbox has
// data. Every item must be consumed.
func TestParkUnparkNoLostWakeups(t *testing.T) {
	const n = 8
	const items = 200
	var mu sync.Mutex
	box := make([]int, n) // items pending per consumer
	done := make([]int, n)
	var ex *Executor
	ex = New(n+1, func(id int) {
		if id == n {
			// producer: deal items out round-robin
			for i := 0; i < n*items; i++ {
				c := i % n
				mu.Lock()
				box[c]++
				mu.Unlock()
				ex.Unpark(c)
			}
			return
		}
		for consumed := 0; consumed < items; {
			mu.Lock()
			got := box[id]
			box[id] = 0
			mu.Unlock()
			if got == 0 {
				ex.Park(id)
				continue
			}
			consumed += got
			if consumed > items {
				t.Errorf("consumer %d over-consumed: %d", id, consumed)
				return
			}
			done[id] = consumed
		}
	}, Options{Workers: 4})
	ex.Start()
	ex.Wait()
	for id, c := range done {
		if c != items {
			t.Fatalf("consumer %d consumed %d, want %d", id, c, items)
		}
	}
	st := ex.Snapshot()
	if st.Parks == 0 || st.Wakeups == 0 {
		t.Fatalf("expected parks and wakeups, got %+v", st)
	}
}

// TestDeadlockAllParked checks the park-path deadlock verdict: when every
// task parks, OnDeadlock fires with all task ids.
func TestDeadlockAllParked(t *testing.T) {
	const n = 4
	fired := make(chan []int, 1)
	var ex *Executor
	ex = New(n, func(id int) {
		defer func() {
			recover() // swallow the post-callback panic so Wait can finish
		}()
		ex.Park(id) // nobody will unpark
	}, Options{Workers: 2, OnDeadlock: func(parked []int) {
		select {
		case fired <- append([]int(nil), parked...):
		default:
		}
		panic("deadlock")
	}})
	ex.Start()
	ex.Wait()
	select {
	case ids := <-fired:
		if len(ids) != n {
			t.Fatalf("deadlock reported %v, want all %d ids", ids, n)
		}
		for i, id := range ids {
			if id != i {
				t.Fatalf("deadlock ids not ascending: %v", ids)
			}
		}
	default:
		t.Fatal("OnDeadlock never fired")
	}
}

// TestDeadlockAfterFinish checks the finish-path verdict: tasks that park
// forever are poisoned and report the deadlock when the last running task
// returns.
func TestDeadlockAfterFinish(t *testing.T) {
	const n = 3
	fired := make(chan []int, 1)
	var ex *Executor
	ex = New(n, func(id int) {
		if id == n-1 {
			return // finishes immediately; others park forever
		}
		defer func() { recover() }()
		ex.Park(id)
	}, Options{Workers: n, OnDeadlock: func(parked []int) {
		select {
		case fired <- append([]int(nil), parked...):
		default:
		}
		panic("deadlock")
	}})
	ex.Start()
	ex.Wait()
	select {
	case ids := <-fired:
		// the poisoned victim plus the remaining parked ranks = all parked ids
		if len(ids) != n-1 {
			t.Fatalf("deadlock reported %v, want the %d parked ids", ids, n-1)
		}
	default:
		t.Fatal("OnDeadlock never fired")
	}
}

// TestBudgetExtras checks extras are drawn from the budget while the queue
// is busy and fully returned by Wait/Abort.
func TestBudgetExtras(t *testing.T) {
	b := &fakeBudget{cap: 3}
	const n = 40
	var mu sync.Mutex
	count := 0
	ex := New(n, func(id int) {
		mu.Lock()
		count++
		mu.Unlock()
	}, Options{Workers: 1, Budget: b})
	ex.Start()
	ex.Wait()
	if count != n {
		t.Fatalf("ran %d tasks, want %d", count, n)
	}
	if got := b.outstanding(); got != 0 {
		t.Fatalf("budget leak: %d units outstanding after Wait", got)
	}
	st := ex.Snapshot()
	if st.MaxSlots > 1+3 {
		t.Fatalf("MaxSlots %d exceeds base+budget cap", st.MaxSlots)
	}
}

// TestAbortReleasesBudget checks Abort returns free extras and leaves the
// executor inert.
func TestAbortReleasesBudget(t *testing.T) {
	b := &fakeBudget{cap: 2}
	const n = 6
	release := make(chan struct{})
	started := make(chan int, n)
	var ex *Executor
	ex = New(n, func(id int) {
		started <- id
		<-release
	}, Options{Workers: 1, Budget: b})
	ex.Start()
	// Wait for as many tasks as slots to start.
	first := <-started
	_ = first
	ex.Abort()
	close(release)
	// Drain remaining started notifications; aborted dispatch means not
	// all n run, which is fine.
	for {
		select {
		case <-started:
			continue
		default:
		}
		break
	}
	// Slots of the running tasks free asynchronously after close(release);
	// poll the budget until extras drain.
	for i := 0; i < 100000; i++ {
		if b.outstanding() == 0 {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("budget leak after Abort: %d outstanding", b.outstanding())
}

// TestAbortReleasesWaitingTasks: after Abort, Wait returns once the
// running task is done. Parked tasks unwind from their Park, the aborting
// task's own later Park unwinds at once, and queued and admitted tasks
// never run.
func TestAbortReleasesWaitingTasks(t *testing.T) {
	const n, aborter = 6, 3
	var mu sync.Mutex
	ran, unwound := map[int]bool{}, map[int]any{}
	var ex *Executor
	ex = New(n, func(id int) {
		mu.Lock()
		ran[id] = true
		mu.Unlock()
		defer func() {
			p := recover()
			mu.Lock()
			unwound[id] = p
			mu.Unlock()
		}()
		if id == aborter {
			ex.Abort()
			ex.Admit(2)
		}
		ex.Park(id)
	}, Options{Workers: 1})
	ex.Start()
	done := make(chan struct{})
	go func() {
		ex.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after Abort")
	}
	for id := 0; id < n+2; id++ {
		if want := id <= aborter; ran[id] != want {
			t.Errorf("task %d ran: %v, want %v", id, ran[id], want)
		}
		if id <= aborter && unwound[id] != "rankexec: aborted" {
			t.Errorf("task %d unwound with %v, want the abort panic", id, unwound[id])
		}
	}
}

// TestUnparkDone checks unparking a finished task is a no-op.
func TestUnparkDone(t *testing.T) {
	ex := New(2, func(id int) {}, Options{Workers: 2})
	ex.Start()
	ex.Wait()
	ex.Unpark(0) // must not panic or wake anything
	ex.Unpark(1)
}

// TestWakeTokenBeforeFirstPark checks Unpark-before-Park never blocks the
// task (token deposited while pending/running).
func TestWakeTokenBeforeFirstPark(t *testing.T) {
	var ex *Executor
	ex = New(2, func(id int) {
		if id == 0 {
			ex.Unpark(1)
			ex.Unpark(1) // tokens collapse: second is a no-op
			return
		}
		ex.Park(1) // consumes token, returns immediately
		// second park would block forever if the collapsed token double-fired
	}, Options{Workers: 2})
	ex.Start()
	ex.Wait()
}

// TestAdmitRunsNewTasks checks tasks admitted from a running task execute
// to completion, get dense ids continuing the existing range, and keep
// Wait blocked until they finish.
func TestAdmitRunsNewTasks(t *testing.T) {
	const n, extra = 4, 3
	var mu sync.Mutex
	ran := make(map[int]bool)
	var ex *Executor
	ex = New(n, func(id int) {
		mu.Lock()
		ran[id] = true
		mu.Unlock()
		if id == 0 {
			if first := ex.Admit(extra); first != n {
				t.Errorf("Admit returned first id %d, want %d", first, n)
			}
		}
	}, Options{Workers: 2})
	ex.Start()
	ex.Wait()
	if len(ran) != n+extra {
		t.Fatalf("ran %d tasks, want %d", len(ran), n+extra)
	}
	for id := 0; id < n+extra; id++ {
		if !ran[id] {
			t.Fatalf("task %d never ran", id)
		}
	}
	if st := ex.Snapshot(); st.Spawned != n+extra {
		t.Fatalf("Spawned = %d, want %d", st.Spawned, n+extra)
	}
}

// TestAdmitKeepsVerdictQuiet checks that a pending admitted task suppresses
// the all-parked verdict: the original tasks park, the admitted task is the
// only thing left runnable, and its wakeups — not a deadlock panic —
// release them.
func TestAdmitKeepsVerdictQuiet(t *testing.T) {
	const n = 3
	var ex *Executor
	ex = New(n, func(id int) {
		if id < n { // original cohort: admit on rank 0, then all park
			if id == 0 {
				ex.Admit(1)
			}
			ex.Park(id) // woken only by the admitted task
			return
		}
		// admitted task: every original is parked (or soon will be) and we
		// are their only wake source
		for w := 0; w < n; w++ {
			ex.Unpark(w)
		}
	}, Options{Workers: 1, OnDeadlock: func(parked []int) {
		panic("verdict fired with an admitted task pending")
	}})
	ex.Start()
	ex.Wait()
}

// TestAdmitRaisesSlotCap checks Admit re-derives MaxWorkers' default (task
// count) so admitted tasks can actually hold slots concurrently.
func TestAdmitRaisesSlotCap(t *testing.T) {
	b := &fakeBudget{cap: 64}
	const n, extra = 2, 6
	var mu sync.Mutex
	cur, peak := 0, 0
	gate := make(chan struct{})
	var ex *Executor
	ex = New(n, func(id int) {
		if id == 0 {
			ex.Admit(extra)
			return
		}
		if id >= n { // admitted: hold a slot until everyone is resident
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			if cur == extra {
				close(gate)
			}
			mu.Unlock()
			<-gate
			mu.Lock()
			cur--
			mu.Unlock()
		}
	}, Options{Workers: 1, Budget: b})
	ex.Start()
	ex.Wait()
	// With the cap stuck at New's n=2, at most 2 admitted tasks could hold
	// slots at once and the gate would never close (covered by timeout);
	// reaching here with full concurrency proves the cap grew.
	if peak != extra {
		t.Fatalf("peak admitted concurrency %d, want %d", peak, extra)
	}
	if got := b.outstanding(); got != 0 {
		t.Fatalf("budget leak: %d units outstanding after Wait", got)
	}
}

// TestAdmitDeadlockIncludesAdmitted checks admitted tasks participate in
// the verdict once they have started and parked.
func TestAdmitDeadlockIncludesAdmitted(t *testing.T) {
	const n = 2
	fired := make(chan []int, 1)
	var ex *Executor
	ex = New(n, func(id int) {
		defer func() { recover() }()
		if id == 0 {
			ex.Admit(1)
		}
		ex.Park(id) // all three park forever
	}, Options{Workers: 3, OnDeadlock: func(parked []int) {
		select {
		case fired <- append([]int(nil), parked...):
		default:
		}
		panic("deadlock")
	}})
	ex.Start()
	ex.Wait()
	select {
	case ids := <-fired:
		if len(ids) != n+1 {
			t.Fatalf("deadlock reported %v, want %d ids including the admitted task", ids, n+1)
		}
	default:
		t.Fatal("OnDeadlock never fired")
	}
}

// TestRunQueueStaysBounded pins the run deque's footprint to its depth.
// Three tasks share one slot and pass wakes round a ring 100 k times — each
// wakes the task that ran before it, then waits for its own wake — so
// whenever one parks another is still queued behind the one that gets the
// slot: the deque never drains. Draining was once the only thing that reset
// it, and its backing array grew by a word per wakeup.
func TestRunQueueStaysBounded(t *testing.T) {
	const n, rounds = 3, 100_000
	var mu sync.Mutex
	credits := make([]int, n)
	var ex *Executor
	ex = New(n, func(id int) {
		prev := (id + n - 1) % n
		for i := 0; i < rounds; i++ {
			mu.Lock()
			credits[prev]++
			mu.Unlock()
			ex.Unpark(prev)
			for {
				mu.Lock()
				ok := credits[id] > 0
				if ok {
					credits[id]--
				}
				mu.Unlock()
				if ok {
					break
				}
				ex.Park(id)
			}
		}
	}, Options{Workers: 1})
	ex.Start()
	ex.Wait()
	wakeups := ex.Snapshot().Wakeups
	if wakeups < rounds {
		t.Fatalf("only %d wakeups in %d rounds: the ring did not run", wakeups, rounds)
	}
	if c := cap(ex.runQ); c > 8*n {
		t.Errorf("run deque capacity %d after %d wakeups of %d tasks, want O(tasks)", c, wakeups, n)
	}
}

// tokenBoxes is the tests' mailbox: a token count and a waiting flag per
// task under one lock. post wakes the receiver only if it waits, clearing
// the flag, so one wait episode is owed exactly one wake; wait is the
// recheck loop the Park contract asks for.
type tokenBoxes struct {
	mu      sync.Mutex
	tokens  []int
	waiting []bool
	// wakes counts post's Unparks, parkCalls wait's Park calls.
	wakes, parkCalls int64
}

func newTokenBoxes(n int) *tokenBoxes {
	return &tokenBoxes{tokens: make([]int, n), waiting: make([]bool, n)}
}

func (b *tokenBoxes) post(ex *Executor, to int) {
	if b.deposit(to) {
		ex.Unpark(to)
	}
}

// deposit posts a token and reports whether the receiver is owed a wake.
func (b *tokenBoxes) deposit(to int) (wake bool) {
	b.mu.Lock()
	b.tokens[to]++
	wake = b.waiting[to]
	b.waiting[to] = false
	if wake {
		b.wakes++
	}
	b.mu.Unlock()
	return wake
}

// wait consumes one of me's tokens, parking while there is none; resumed,
// if set, runs after every Park return.
func (b *tokenBoxes) wait(ex *Executor, me int, resumed func()) {
	for {
		b.mu.Lock()
		if b.tokens[me] > 0 {
			b.tokens[me]--
			b.mu.Unlock()
			return
		}
		b.waiting[me] = true
		b.parkCalls++
		b.mu.Unlock()
		ex.Park(me)
		if resumed != nil {
			resumed()
		}
	}
}

// partnerRing runs n tasks (n even) for rounds rounds of the mailbox
// pattern between pairwise partners id and id^1 — post a token to the
// partner, then wait for one's own — and returns the executor after Wait.
// On one slot a woken partner queues behind every other pair, so the wakes
// travel the whole ring before it runs again.
func partnerRing(n, rounds int, opts Options) *Executor {
	boxes := newTokenBoxes(n)
	var ex *Executor
	ex = New(n, func(id int) {
		for r := 0; r < rounds; r++ {
			boxes.post(ex, id^1)
			boxes.wait(ex, id, nil)
		}
	}, opts)
	ex.Start()
	ex.Wait()
	return ex
}

// TestParkHandsSlotToQueuedTask pins the fast path: a park with runnable
// work queued behind it hands its slot straight to the deque head, at every
// slot count. In a 4096-task ring every task parks every other round (a
// partner's post runs one round ahead) and nearly every park finds such
// work; only the last pairs' parks, with the deque drained, free their
// slot.
func TestParkHandsSlotToQueuedTask(t *testing.T) {
	const n, rounds = 4096, 8
	for _, w := range []int{1, 2, 4} {
		st := partnerRing(n, rounds, Options{Workers: w}).Snapshot()
		minParks := int64(n * rounds / 2)
		if w > 1 {
			// Slots running side by side let a post land before its
			// receiver parks, sparing that park.
			minParks /= 2
		}
		if st.Parks < minParks {
			t.Fatalf("Workers=%d: only %d parks for %d tasks × %d rounds: the ring did not run", w, st.Parks, n, rounds)
		}
		if float64(st.Handoffs) < 0.99*float64(st.Parks) {
			t.Fatalf("Workers=%d: Handoffs = %d of %d parks, want ≥ 99 %%", w, st.Handoffs, st.Parks)
		}
		if w == 1 && st.Parks != st.Wakeups {
			t.Fatalf("Parks = %d, Wakeups = %d: on one slot every wake ends one park", st.Parks, st.Wakeups)
		}
	}
}

// BenchmarkParkHandoff times one park-and-wake cycle of the 4096-task ring
// on one, two and four run slots; a task parks every other round, so b.N
// parks take 2·b.N/4096 rounds.
func BenchmarkParkHandoff(b *testing.B) {
	const n = 4096
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			st := partnerRing(n, 2*b.N/n+2, Options{Workers: w}).Snapshot()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Parks), "ns/park")
		})
	}
}
