// Package rankexec is an event-driven executor for the ranks of a virtual
// machine: each rank is a resumable task with an explicit run/blocked
// state, parked when it waits on a message (or anything built from
// messages — collectives, barriers) and re-enqueued when its wakeup
// condition is satisfied. Runnable tasks are multiplexed over a bounded
// set of run slots instead of being handed to the Go scheduler all at
// once, so a 16384-rank machine keeps a handful of ranks executing and
// the rest parked at a fixed, metered cost.
//
// The executor decides only *where and when host execution happens*; it
// must never influence what the tasks compute. vmpi's virtual clocks are a
// pure function of the program's communication structure, so any park/wake
// interleaving yields bit-identical virtual results — the property the
// byte-identity gates (-j 1 vs. -j 8, Workers 1 vs. 2 vs. 8) enforce end
// to end. For the same reason this package is part of the parlint
// determinism hot set: no wall-clock reads, no map iteration, no atomics
// in the rank-execution path.
//
// Tasks are Go goroutines — the only resumable stacks the language
// offers — but a task's goroutine is spawned lazily on first dispatch and
// its runnability is owned entirely by the executor. Lazy spawn bounds
// resident stacks only until tasks first park: a parked task keeps its
// goroutine, so a program in which every rank waits once holds one stack
// per task (PeakResident = task count).
//
//	pending ──dispatch(spawn)──▶ running ──Park──▶ parked
//	   ▲                          ▲  │ return        │
//	   └── initial enqueue        │  ▼               │ Unpark
//	                              │ done             ▼
//	                           dispatch ◀─────── runnable
//
// A wakeup that races with a park is never lost: Unpark of a task that is
// not parked deposits a wake token, and Park consumes a pending token
// instead of blocking, so the caller's recheck loop (test condition → Park
// → retest) is sound without holding any executor lock across the test.
// Park is also the only way a task may block: a task waiting on a host
// primitive (channel, lock, WaitGroup) that another task releases keeps
// its run slot, and a Workers=1 run hangs.
//
// # Locking
//
// One mutex guards everything: the task states and wake tokens, one FIFO
// run deque of runnable ids, and the slot bank — free run slots (base +
// budget extras) and the parked/finished counts behind the all-parked
// deadlock verdict. A park, a wake batch and a finish each settle in one
// critical section. A parking (or finishing) task with work queued behind
// it passes its slot straight to the deque head, never counting it free;
// only a parker that finds the deque empty frees its slot. The verdict,
// checked at every park and finish, cannot fire on the hand-off path,
// because the task receiving the slot is neither parked nor finished.
// Grants are decided under the lock and delivered (goroutine spawned or
// grant sent) after it drops: a granted task is running, so nothing can
// park, poison or re-grant it in between.
//
// UnparkBatch wakes any number of tasks in one critical section: marking
// parked tasks runnable, enqueueing them, settling the parked and runnable
// counts, and granting while slots remain. While a batch is in flight its
// caller is itself a live, unparked task, keeping parked+finished strictly
// below the task count.
//
// Run slots come from two sources: a fixed base (at least one, so progress
// never depends on anyone else's capacity) and optional extra units
// try-acquired from a shared host-compute budget (hostpar.Budget — the
// same pool the experiment scheduler and hostpar's tile workers draw
// from). Extras are acquired only while runnable tasks are queued and
// returned as soon as the pending work drains, so an executor that is
// mostly parked holds no capacity hostage.
package rankexec

import (
	"fmt"
	"sync"
)

// Budget is the capacity source for run slots beyond the base slot.
// hostpar.Budget satisfies it; acquisition must be non-blocking so an
// executor can never deadlock on host capacity.
type Budget interface {
	TryAcquire() bool
	Release()
}

// task states.
const (
	statePending  uint8 = iota // never dispatched; queued at Start
	stateRunnable              // woken, waiting in the run deque
	stateRunning               // holds a run slot
	stateParked                // blocked in Park, waiting for Unpark
	stateDone                  // body returned
)

// task is one resumable rank.
type task struct {
	state uint8
	// wake is the pending-wakeup token: set by Unpark when the task is not
	// parked, consumed by the next Park (which then returns immediately).
	wake bool
	// poisoned marks a waiting task woken by Abort or the deadlock
	// verdict: its Park call unwinds (unwind) instead of resuming normally.
	poisoned bool
	// hasSlot reports whether the task currently holds a run slot; it keeps
	// slot accounting exact across poisoned wakeups (which grant no slot).
	hasSlot bool
	// grant resumes a parked (or pending) task; buffered so a granter
	// never blocks while holding the lock.
	grant chan struct{}
	// started reports whether the task's goroutine exists yet.
	started bool
}

func newTask() *task {
	return &task{state: statePending, grant: make(chan struct{}, 1)}
}

// Stats meters the executor. All values are host-side quantities: they
// depend on scheduling and must never feed a virtual result (they are kept
// out of the golden observability exports).
type Stats struct {
	// Parks counts blocking parks (token-consuming no-op parks excluded).
	Parks int64
	// Handoffs counts the parks whose run slot went straight to a queued
	// task instead of being freed.
	Handoffs int64
	// Wakeups counts unparks that made a task runnable or deposited a
	// wake token.
	Wakeups int64
	// Spawned counts task goroutines actually created.
	Spawned int64
	// MaxRunnable is the high-water mark of runnable tasks awaiting a
	// slot (batch-granular: a batched wake settles the meter once per
	// batch).
	MaxRunnable int
	// PeakResident is the high-water mark of live task goroutines
	// (spawned and not yet finished) — the executor's memory footprint
	// driver at large rank counts.
	PeakResident int
	// MaxSlots is the high-water mark of concurrently held run slots
	// (base + budget extras).
	MaxSlots int
}

// Options configures an Executor.
type Options struct {
	// Workers fixes the base slot count (minimum 1). Zero selects one base
	// slot; extra capacity then comes only from Budget.
	Workers int
	// Budget, if non-nil, provides extra run slots beyond the base via
	// non-blocking acquisition. Extras are capped by MaxWorkers and
	// released whenever the pending work drains.
	Budget Budget
	// MaxWorkers caps total slots (base + extras). Zero means the task
	// count.
	MaxWorkers int
	// OnDeadlock is invoked (outside the executor lock) when every live
	// task is parked and no wakeup is pending, with the parked task ids in
	// ascending order. The verdict aborts the executor, and every parked
	// task is woken poisoned and invokes it, so the verdict surfaces on
	// goroutines that have the caller's panic recovery up-stack. It must
	// panic; the executor panics itself if it returns.
	OnDeadlock func(parked []int)
}

// Executor multiplexes tasks over a bounded set of run slots.
type Executor struct {
	run  func(id int)
	opts Options

	// mu guards everything below.
	mu    sync.Mutex
	tasks []*task
	// runQ is the FIFO deque of runnable task ids; qHead indexes its front.
	runQ  []int
	qHead int

	baseSlots int
	maxSlots  int
	freeSlots int
	extras    int // budget units currently held

	parked   int
	finished int
	resident int
	runnable int
	aborted  bool
	// deadIDs is the parked-id set of a declared deadlock; written with
	// aborted, before any poisoned grant, and then read by the released
	// tasks, ordered by their grant-channel receives or by mu.
	deadIDs []int

	st Stats

	wg sync.WaitGroup
}

// New creates an executor for n tasks whose bodies are run(id); nothing
// executes until Start.
func New(n int, run func(id int), opts Options) *Executor {
	if n < 1 {
		panic("rankexec: need at least 1 task")
	}
	base := opts.Workers
	if base < 1 {
		base = 1
	}
	max := opts.MaxWorkers
	if max <= 0 || max > n {
		max = n
	}
	if base > max {
		base = max
	}
	ex := &Executor{
		run:       run,
		opts:      opts,
		tasks:     make([]*task, n),
		baseSlots: base,
		maxSlots:  max,
		freeSlots: base,
	}
	for id := range ex.tasks {
		ex.tasks[id] = newTask()
	}
	ex.wg.Add(n)
	return ex
}

// Start enqueues every task and begins dispatching.
func (ex *Executor) Start() {
	ex.mu.Lock()
	for id := range ex.tasks {
		ex.runQ, ex.qHead = enqueue(ex.runQ, ex.qHead, id)
	}
	ex.noteRunnableLocked(len(ex.tasks))
	ex.mu.Unlock()
	ex.dispatch()
}

// Admit appends k new tasks to a running executor and returns the id of
// the first. The new tasks are enqueued pending, spawn lazily on first
// dispatch, and raise the slot cap exactly as if they had been present at
// New. Admit must be called from a running task or before Wait has
// returned; the admitted tasks keep Wait blocked until their bodies finish.
// After Abort they are done at once, without running.
//
// Admission and the all-parked verdict compose without special cases: a
// pending task is neither parked nor finished, so the verdict
// (parked+finished == tasks) cannot fire while an admitted task has yet to
// run — exactly right, since that task may still send wakeups.
func (ex *Executor) Admit(k int) int {
	if k < 1 {
		panic("rankexec: Admit needs at least 1 task")
	}
	ex.mu.Lock()
	first := len(ex.tasks)
	if ex.aborted {
		for range k {
			ex.tasks = append(ex.tasks, &task{state: stateDone})
		}
		ex.finished += k
		ex.mu.Unlock()
		return first
	}
	ex.wg.Add(k)
	for id := first; id < first+k; id++ {
		ex.tasks = append(ex.tasks, newTask())
		ex.runQ, ex.qHead = enqueue(ex.runQ, ex.qHead, id)
	}
	// Re-derive the slot cap for the grown task count (same rule as New).
	max := ex.opts.MaxWorkers
	if max <= 0 || max > len(ex.tasks) {
		max = len(ex.tasks)
	}
	if max < ex.baseSlots {
		max = ex.baseSlots
	}
	ex.maxSlots = max
	ex.noteRunnableLocked(k)
	ex.mu.Unlock()
	ex.dispatch()
	return first
}

// Wait blocks until every task's body has returned, then returns all extra
// budget units.
func (ex *Executor) Wait() {
	ex.wg.Wait()
	ex.mu.Lock()
	ex.trimExtrasLocked(true)
	ex.mu.Unlock()
}

// Park blocks the calling task (which must be running) until Unpark, or
// returns immediately when a wake token is pending. Callers use it inside
// a condition-recheck loop: test, Park, retest. A blocking park is one
// critical section (see releaseSlotLocked). On an aborted executor, and
// when Abort or the deadlock verdict releases the parked task, Park
// panics instead (unwind).
func (ex *Executor) Park(id int) {
	ex.mu.Lock()
	t := ex.tasks[id]
	if ex.aborted {
		ex.mu.Unlock()
		ex.unwind()
	}
	if t.wake {
		t.wake = false
		ex.mu.Unlock()
		return
	}
	ex.st.Parks++
	t.state = stateParked
	t.hasSlot = false
	ex.parked++
	var g grants
	if ex.releaseSlotLocked(&g) {
		ex.st.Handoffs++
	}
	ex.mu.Unlock()
	ex.deliver(&g)
	<-t.grant
	// poisoned was written before the grant send; the channel receive
	// orders this read after it.
	if t.poisoned {
		ex.unwind()
	}
}

// Unpark marks the task runnable (or deposits a wake token when it is not
// parked) and dispatches. Safe to call from any goroutine.
func (ex *Executor) Unpark(id int) {
	var one [1]int
	one[0] = id
	ex.UnparkBatch(one[:])
}

// UnparkBatch unparks every listed task (duplicates allowed) in one
// critical section: parked tasks join the run deque, the others get a wake
// token, then queued work is granted while slots remain. ids is only read.
// Safe to call from any goroutine.
func (ex *Executor) UnparkBatch(ids []int) {
	ex.mu.Lock()
	w := 0
	for _, id := range ids {
		t := ex.tasks[id]
		switch t.state {
		case stateParked:
			t.state = stateRunnable
			ex.runQ, ex.qHead = enqueue(ex.runQ, ex.qHead, id)
			w++
		case statePending, stateRunnable, stateRunning:
			t.wake = true
		case stateDone:
			// A message to a finished rank: the receive that would consume
			// it can never run; nothing to wake.
			continue
		}
		ex.st.Wakeups++
	}
	var g grants
	if w > 0 {
		ex.parked -= w
		ex.noteRunnableLocked(w)
		for ex.grantLocked(&g) {
		}
	}
	ex.mu.Unlock()
	ex.deliver(&g)
}

// Abort stops all dispatching, returns every free budget unit and
// releases every waiting task, so that Wait returns once the running tasks
// are done too: parked and queued tasks wake poisoned and unwind from
// their Park, a task that parks later unwinds at once, and a task that
// never ran is done without running. Units held by running tasks are
// returned as their slots free. Idempotent.
func (ex *Executor) Abort() { ex.abort(false) }

// Snapshot returns the current stats.
func (ex *Executor) Snapshot() Stats {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.st
}

// --- internals ---

// enqueue appends v to a FIFO kept as a slice and the index of its front.
// Once the consumed prefix exceeds half the slice the live tail first moves
// to the front, so the backing array is sized by the queue's depth, not by
// everything ever queued — a busy deque never drains, and would otherwise
// grow by one word per wakeup for the life of the run.
func enqueue(q []int, head, v int) ([]int, int) {
	if head > len(q)/2 {
		q = q[:copy(q, q[head:])]
		head = 0
	}
	return append(q, v), head
}

// noteRunnableLocked adds k tasks to the runnable meter and ratchets its
// high-water mark.
func (ex *Executor) noteRunnableLocked(k int) {
	ex.runnable += k
	if ex.runnable > ex.st.MaxRunnable {
		ex.st.MaxRunnable = ex.runnable
	}
}

// dispatch grants run slots to queued tasks until the deque drains or
// slots run out.
func (ex *Executor) dispatch() {
	var g grants
	ex.mu.Lock()
	for ex.grantLocked(&g) {
	}
	ex.mu.Unlock()
	ex.deliver(&g)
}

// grants is what one critical section decided and its caller carries out
// once the lock drops: the tasks granted a slot are resumed — spawned, or
// sent their grant — so the channel send and the runtime readying the
// receiver stay outside the lock; or the all-parked verdict is declared.
type grants struct {
	n       int
	tasks   [4]*task // nil: spawn ids[i]
	ids     [4]int
	verdict bool
}

// deliver carries out a critical section's grants. A full batch may have
// left work queued behind free slots, so it dispatches again.
func (ex *Executor) deliver(g *grants) {
	for i := 0; i < g.n; i++ {
		if t := g.tasks[i]; t != nil {
			t.grant <- struct{}{}
		} else {
			go ex.taskMain(g.ids[i])
		}
	}
	if g.n == len(g.ids) {
		ex.dispatch()
	}
	if g.verdict {
		ex.declareDeadlock()
	}
}

// grantLocked grants a run slot to the next queued task, recording it in g
// for deliver, and reports whether it did. Work that finds no slot (nor one
// grown from the budget) stays queued for the next released slot.
func (ex *Executor) grantLocked(g *grants) bool {
	if g.n == len(g.ids) || ex.qHead >= len(ex.runQ) || ex.aborted {
		return false
	}
	if ex.freeSlots == 0 && !ex.growLocked() {
		return false
	}
	ex.freeSlots--
	ex.runnable--
	if held := ex.baseSlots + ex.extras - ex.freeSlots; held > ex.st.MaxSlots {
		ex.st.MaxSlots = held
	}
	id := ex.runQ[ex.qHead]
	ex.qHead++
	t := ex.tasks[id]
	t.state = stateRunning
	t.hasSlot = true
	g.ids[g.n] = id
	if t.started {
		g.tasks[g.n] = t
	} else {
		g.tasks[g.n] = nil
		t.started = true
		ex.st.Spawned++
		ex.resident++
		if ex.resident > ex.st.PeakResident {
			ex.st.PeakResident = ex.resident
		}
	}
	g.n++
	return true
}

// releaseSlotLocked gives up the run slot of a task that has just parked
// or finished (the caller has counted it). With work queued, the slot goes
// straight to the deque head; it reports this hand-off. Otherwise the slot
// is freed, the verdict checked and surplus extras returned.
func (ex *Executor) releaseSlotLocked(g *grants) (handed bool) {
	ex.freeSlots++
	if g.verdict = ex.deadlockedLocked(); g.verdict {
		return false
	}
	if ex.aborted {
		ex.trimExtrasLocked(true)
		return false
	}
	if ex.qHead < len(ex.runQ) {
		for ex.grantLocked(g) {
		}
		return true
	}
	ex.trimExtrasLocked(false)
	return false
}

// growLocked try-acquires one extra budget unit. Reports whether a slot
// became free.
func (ex *Executor) growLocked() bool {
	if ex.opts.Budget == nil || ex.baseSlots+ex.extras >= ex.maxSlots {
		return false
	}
	if !ex.opts.Budget.TryAcquire() {
		return false
	}
	ex.extras++
	ex.freeSlots++
	return true
}

// trimExtrasLocked returns the free extra budget units beyond the base
// slots; with force, every free unit (teardown). Callers trim only when no
// work is queued.
func (ex *Executor) trimExtrasLocked(force bool) {
	for ex.extras > 0 && ex.freeSlots > 0 {
		if !force && ex.freeSlots <= ex.baseSlots {
			return
		}
		ex.extras--
		ex.freeSlots--
		ex.opts.Budget.Release()
	}
}

// taskMain runs a task's body and releases its slot like a park does. A
// finishing task can strand the rest: if everyone left alive is now parked
// with no wakeup in flight, the verdict is declared here. Only a poisoned
// task — the executor is already aborted — finishes without a slot.
func (ex *Executor) taskMain(id int) {
	ex.run(id)
	ex.mu.Lock()
	t := ex.tasks[id]
	t.state = stateDone
	ex.finished++
	ex.resident--
	var g grants
	if t.hasSlot {
		ex.releaseSlotLocked(&g)
	}
	t.hasSlot = false
	ex.mu.Unlock()
	ex.deliver(&g)
	ex.wg.Done()
}

// declareDeadlock records the verdict and aborts: each parked task reports
// the deadlock from its own Park call, on a goroutine that has the caller's
// panic recovery machinery up-stack, and can then finish, so Wait
// terminates when the task bodies recover.
func (ex *Executor) declareDeadlock() { ex.abort(true) }

// deadlockedLocked reports the all-parked condition: every unfinished task
// is parked and none holds a wake token. Tokens can only belong to
// non-parked tasks (Park consumes them before blocking), every in-flight
// batched wake is matched by a runnable (non-parked) task, and the
// delivering sender of any batch is itself live — so parked+finished
// covering all tasks is exact.
func (ex *Executor) deadlockedLocked() bool {
	return !ex.aborted && ex.parked > 0 && ex.parked+ex.finished == len(ex.tasks)
}

// abort stops dispatching, returns the free extras and releases every
// waiting task; with verdict it first records the parked ids as the
// deadlock verdict. A task that never ran is done; a parked or queued one
// leaves the parked set and the deque poisoned, holding no slot, and is
// sent its grant once the lock drops. A waiting task never has a pending
// grant, so the buffered sends cannot block.
func (ex *Executor) abort(verdict bool) {
	ex.mu.Lock()
	if ex.aborted {
		ex.mu.Unlock()
		return
	}
	ex.aborted = true
	ex.trimExtrasLocked(true)
	var woken []*task
	unrun := 0
	for id, t := range ex.tasks {
		switch t.state {
		case statePending:
			t.state = stateDone
			unrun++
		case stateParked, stateRunnable:
			if verdict && t.state == stateParked {
				ex.deadIDs = append(ex.deadIDs, id)
			}
			t.poisoned = true
			t.state = stateRunning
			woken = append(woken, t)
		}
	}
	ex.finished += unrun
	ex.parked, ex.runnable = 0, 0
	ex.runQ, ex.qHead = ex.runQ[:0], 0
	ex.mu.Unlock()
	ex.wg.Add(-unrun)
	for _, t := range woken {
		t.grant <- struct{}{}
	}
}

// unwind ends a task the executor has released: with the deadlock verdict
// if one was declared, else with a panic saying the executor aborted. The
// caller's recovery, which caused the abort, holds the panic that matters.
func (ex *Executor) unwind() {
	if ex.deadIDs != nil {
		ex.reportDeadlock(ex.deadIDs)
	}
	panic("rankexec: aborted")
}

func (ex *Executor) reportDeadlock(parked []int) {
	if ex.opts.OnDeadlock != nil {
		ex.opts.OnDeadlock(parked)
	}
	panic(fmt.Sprintf("rankexec: deadlock: all live tasks parked: %v", parked))
}
