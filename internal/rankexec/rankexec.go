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
// # Sharding
//
// State is split two ways so the executor scales across workers instead of
// serializing every transition on one mutex:
//
//   - Tasks are sharded by id over per-worker shards (one per base run
//     slot, capped). A shard's mutex owns its tasks' states, wake tokens,
//     and a FIFO deque of its runnable ids, so the hot paths — a wake
//     token deposit, a park that consumes a token — touch only the
//     owning shard.
//   - A central slot bank owns the fungible resources: free run slots
//     (base + budget extras), the parked/finished counts behind the
//     all-parked deadlock verdict, and a FIFO hand-off queue of shards
//     that have runnable work but found no free slot. A freed slot is
//     handed to the longest-waiting such shard, deterministically, never
//     by map iteration.
//
// Lock order is shard → bank, always; the bank never acquires a shard
// mutex. A park and a wake each settle in one shard episode that holds the
// bank lock once. A parking (or finishing) task whose shard has queued
// work and is next in line for a slot — the head of the hand-off queue, or
// the queue is empty — passes its slot straight to its deque head, never
// counting it free. Only a slot another shard is owed goes the long way:
// freed under the bank lock, the owed shard popped, and that shard
// dispatched after unlocking. The verdict cannot fire on the hand-off
// path, because the task receiving the slot is neither parked nor
// finished. Grants are decided under the locks and delivered (goroutine
// spawned or grant sent) after they drop: a granted task is running, so
// nothing can park, poison or re-grant it in between.
//
// UnparkBatch wakes any number of tasks in one episode per shard the
// batch touches: the shard lock is held across marking parked tasks
// runnable, enqueueing them, settling the bank's parked and runnable
// counts, and granting inline while slots remain (or registering the shard
// for hand-off when none is). A woken task cannot be granted — and re-park,
// double-counting itself — before the bank's parked count drops, because
// it is enqueued under the shard lock held across that settle; and while a
// batch is in flight its caller is itself a live, unparked task, keeping
// parked+finished strictly below the task count.
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
	stateRunnable              // woken, waiting in a shard's run deque
	stateRunning               // holds a run slot
	stateParked                // blocked in Park, waiting for Unpark
	stateDone                  // body returned
)

// maxShards caps the shard count: beyond a few handfuls of workers the
// bank, not the shard mutexes, is the contended resource, and a bounded
// count keeps the declare/snapshot sweeps cheap.
const maxShards = 16

// task is one resumable rank.
type task struct {
	state uint8
	// wake is the pending-wakeup token: set by Unpark when the task is not
	// parked, consumed by the next Park (which then returns immediately).
	wake bool
	// poisoned marks a parked task woken to deliver a deadlock verdict:
	// its Park call reports the deadlock instead of resuming normally.
	poisoned bool
	// hasSlot reports whether the task currently holds a run slot; it keeps
	// slot accounting exact across poisoned wakeups (which grant no slot).
	hasSlot bool
	// grant resumes a parked (or pending) task; buffered so a granter
	// never blocks while holding locks.
	grant chan struct{}
	// started reports whether the task's goroutine exists yet.
	started bool
}

// shard owns the tasks whose id ≡ idx (mod shard count): their states and
// wake tokens, and the FIFO deque of its runnable ids. Everything below mu
// is guarded by it. The hot wake paths touch only this lock.
type shard struct {
	mu  sync.Mutex
	idx int
	// tasks holds this shard's tasks; task id maps to local index
	// id / nShards (ids are dealt round-robin, so appends in global id
	// order keep the mapping dense).
	tasks []*task
	// runQ is the FIFO deque of runnable task ids; qHead indexes its front.
	runQ  []int
	qHead int
	// shard-local stat counters, summed by Snapshot.
	parks    int64
	handoffs int64
	wakeups  int64
	spawned  int64
}

// Stats meters the executor. All values are host-side quantities: they
// depend on scheduling and must never feed a virtual result (they are kept
// out of the golden observability exports).
type Stats struct {
	// Parks counts blocking parks (token-consuming no-op parks excluded).
	Parks int64
	// Handoffs counts the parks whose run slot went straight to a queued
	// task of the parker's shard instead of being freed.
	Handoffs int64
	// Wakeups counts unparks that made a task runnable or deposited a
	// wake token.
	Wakeups int64
	// Spawned counts task goroutines actually created.
	Spawned int64
	// MaxRunnable is the high-water mark of runnable tasks awaiting a
	// slot, summed over shards (batch-granular: a batched wake settles the
	// meter once per batch).
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
	// slot; extra capacity then comes only from Budget. The shard count
	// follows the base slot count (capped), so each worker has its own
	// deque.
	Workers int
	// Budget, if non-nil, provides extra run slots beyond the base via
	// non-blocking acquisition. Extras are capped by MaxWorkers and
	// released whenever the pending work drains.
	Budget Budget
	// MaxWorkers caps total slots (base + extras). Zero means the task
	// count.
	MaxWorkers int
	// OnDeadlock is invoked (outside the executor locks) when every live
	// task is parked and no wakeup is pending, with the parked task ids in
	// ascending order. Every parked task is woken poisoned and invokes it,
	// so the verdict surfaces on goroutines that have the caller's panic
	// recovery up-stack. It must panic; the executor panics itself if it
	// returns.
	OnDeadlock func(parked []int)
}

// Executor multiplexes tasks over a bounded set of run slots.
type Executor struct {
	run     func(id int)
	opts    Options
	nShards int
	shards  []*shard

	// mu is the slot bank's lock, guarding everything below. Lock order is
	// shard → bank; bank-locked code never touches a shard mutex.
	mu     sync.Mutex
	nTasks int

	baseSlots int
	maxSlots  int
	freeSlots int
	extras    int // budget units currently held

	parked   int
	finished int
	resident int
	runnable int
	aborted  bool
	// pendingQ is the FIFO hand-off queue of shard indices that have
	// runnable work but found no free slot; inPending dedupes entries.
	pendingQ  []int
	pendHead  int
	inPending []bool
	// deadIDs is the parked-id set of a declared deadlock; written before
	// any poisoned grant and then read by the poisoned wakers, ordered by
	// their grant-channel receives.
	deadIDs []int

	maxRunnable  int
	peakResident int
	statMaxSlots int

	wg sync.WaitGroup
}

// New creates an executor for n tasks whose bodies are run(id). Tasks are
// dealt round-robin over one shard per base worker; nothing executes until
// Start.
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
	nShards := base
	if nShards > maxShards {
		nShards = maxShards
	}
	ex := &Executor{
		run:       run,
		opts:      opts,
		nShards:   nShards,
		shards:    make([]*shard, nShards),
		nTasks:    n,
		baseSlots: base,
		maxSlots:  max,
		freeSlots: base,
		inPending: make([]bool, nShards),
	}
	for i := range ex.shards {
		ex.shards[i] = &shard{idx: i}
	}
	for id := 0; id < n; id++ {
		s := ex.shards[id%nShards]
		s.tasks = append(s.tasks, &task{state: statePending, grant: make(chan struct{}, 1)})
	}
	ex.wg.Add(n)
	return ex
}

// shardOf returns the shard owning a task id.
func (ex *Executor) shardOf(id int) *shard { return ex.shards[id%ex.nShards] }

// taskIn returns a shard's task by global id; the shard mutex must be held.
func (s *shard) taskIn(id int, nShards int) *task { return s.tasks[id/nShards] }

// Start enqueues every task and begins dispatching.
func (ex *Executor) Start() {
	ex.mu.Lock()
	n := ex.nTasks
	ex.noteRunnableLocked(n)
	ex.mu.Unlock()
	for idx, s := range ex.shards {
		s.mu.Lock()
		for id := idx; id < n; id += ex.nShards {
			s.runQ, s.qHead = enqueue(s.runQ, s.qHead, id)
		}
		s.mu.Unlock()
	}
	// Grant the initial wave round-robin across shards — one task per
	// shard per pass — so low ids fill the first slots regardless of the
	// shard layout, exactly like the single-queue executor's FIFO wave.
	for {
		any := false
		for _, s := range ex.shards {
			var g grants
			s.mu.Lock()
			ex.mu.Lock()
			if ex.grantLocked(s, &g) {
				any = true
			}
			ex.mu.Unlock()
			s.mu.Unlock()
			ex.deliver(&g, s)
		}
		if !any {
			return
		}
	}
}

// Admit appends k new tasks to a running executor and returns the id of
// the first. The new tasks are enqueued pending, spawn lazily on first
// dispatch, and raise the slot cap exactly as if they had been present at
// New. Admit must be called from a running task or before Wait has
// returned; the admitted tasks keep Wait blocked until their bodies finish.
//
// Admission and the all-parked verdict compose without special cases: a
// pending task is neither parked nor finished, so the verdict
// (parked+finished == tasks) cannot fire while an admitted task has yet to
// run — exactly right, since that task may still send wakeups.
func (ex *Executor) Admit(k int) int {
	if k < 1 {
		panic("rankexec: Admit needs at least 1 task")
	}
	ex.wg.Add(k)
	ex.mu.Lock()
	first := ex.nTasks
	ex.nTasks += k
	// Re-derive the slot cap for the grown task count (same rule as New).
	max := ex.opts.MaxWorkers
	if max <= 0 || max > ex.nTasks {
		max = ex.nTasks
	}
	if max < ex.baseSlots {
		max = ex.baseSlots
	}
	ex.maxSlots = max
	ex.noteRunnableLocked(k)
	ex.mu.Unlock()
	var touched [maxShards]bool
	for id := first; id < first+k; id++ {
		s := ex.shardOf(id)
		s.mu.Lock()
		s.tasks = append(s.tasks, &task{state: statePending, grant: make(chan struct{}, 1)})
		s.runQ, s.qHead = enqueue(s.runQ, s.qHead, id)
		s.mu.Unlock()
		touched[id%ex.nShards] = true
	}
	for i := 0; i < ex.nShards; i++ {
		if touched[i] {
			ex.dispatch(ex.shards[i])
		}
	}
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
// shard episode holding the bank lock once (see releaseSlotLocked).
func (ex *Executor) Park(id int) {
	s := ex.shardOf(id)
	s.mu.Lock()
	t := s.taskIn(id, ex.nShards)
	if t.wake {
		t.wake = false
		s.mu.Unlock()
		return
	}
	s.parks++
	t.state = stateParked
	t.hasSlot = false
	var g grants
	ex.mu.Lock()
	ex.parked++
	if ex.releaseSlotLocked(s, &g) {
		s.handoffs++
	}
	ex.mu.Unlock()
	s.mu.Unlock()
	ex.deliver(&g, s)
	<-t.grant
	// poisoned was written before the grant send; the channel receive
	// orders this read after it.
	if t.poisoned {
		ex.reportDeadlock(ex.deadIDs)
	}
}

// Unpark marks the task runnable (or deposits a wake token when it is not
// parked) and dispatches. Safe to call from any goroutine.
func (ex *Executor) Unpark(id int) {
	var one [1]int
	one[0] = id
	ex.UnparkBatch(one[:])
}

// UnparkBatch unparks every listed task (duplicates allowed) in one shard
// episode per shard the batch touches, each holding the bank lock once —
// one bank episode per delivery batch and shard, not one per woken rank.
// ids is only read. Safe to call from any goroutine.
func (ex *Executor) UnparkBatch(ids []int) {
	var touched [maxShards]bool
	for _, id := range ids {
		touched[id%ex.nShards] = true
	}
	for i, s := range ex.shards {
		if touched[i] {
			ex.wakeShard(s, ids)
		}
	}
}

// wakeShard settles the ids of one shard in one episode (see the package
// doc): parked tasks join its deque, the others get a wake token, then the
// bank settles and queued work is granted while slots remain.
func (ex *Executor) wakeShard(s *shard, ids []int) {
	s.mu.Lock()
	w := 0
	for _, id := range ids {
		if id%ex.nShards != s.idx {
			continue
		}
		t := s.taskIn(id, ex.nShards)
		switch t.state {
		case stateParked:
			t.state = stateRunnable
			s.runQ, s.qHead = enqueue(s.runQ, s.qHead, id)
			w++
		case statePending, stateRunnable, stateRunning:
			t.wake = true
		case stateDone:
			// A message to a finished rank: the receive that would consume
			// it can never run; nothing to wake.
			continue
		}
		s.wakeups++
	}
	var g grants
	if w > 0 {
		ex.mu.Lock()
		ex.parked -= w
		ex.noteRunnableLocked(w)
		for ex.grantLocked(s, &g) {
		}
		ex.mu.Unlock()
	}
	s.mu.Unlock()
	ex.deliver(&g, s)
}

// Abort stops all dispatching and returns every free budget unit. Parked
// tasks are left parked forever (the caller is unwinding a rank panic and
// will never resume them); units held by still-running tasks are returned
// as their slots free. Idempotent.
func (ex *Executor) Abort() {
	ex.mu.Lock()
	ex.abortLocked()
	ex.mu.Unlock()
}

// Snapshot returns the current stats (shard counters summed).
func (ex *Executor) Snapshot() Stats {
	var st Stats
	for _, s := range ex.shards {
		s.mu.Lock()
		st.Parks += s.parks
		st.Handoffs += s.handoffs
		st.Wakeups += s.wakeups
		st.Spawned += s.spawned
		s.mu.Unlock()
	}
	ex.mu.Lock()
	st.MaxRunnable = ex.maxRunnable
	st.PeakResident = ex.peakResident
	st.MaxSlots = ex.statMaxSlots
	ex.mu.Unlock()
	return st
}

// --- internals ---

// enqueue appends v to a FIFO kept as a slice and the index of its front.
// Once the consumed prefix exceeds half the slice the live tail first moves
// to the front, so the backing array is sized by the queue's depth, not by
// everything ever queued — a busy shard's deque never drains, and would
// otherwise grow by one word per wakeup for the life of the run.
func enqueue(q []int, head, v int) ([]int, int) {
	if head > len(q)/2 {
		q = q[:copy(q, q[head:])]
		head = 0
	}
	return append(q, v), head
}

// noteRunnableLocked adds k tasks to the runnable meter and ratchets its
// high-water mark. Callers hold the bank lock.
func (ex *Executor) noteRunnableLocked(k int) {
	ex.runnable += k
	if ex.runnable > ex.maxRunnable {
		ex.maxRunnable = ex.runnable
	}
}

// dispatch grants run slots to the shard's queued tasks until the deque
// drains or slots run out. Called without locks; acquires shard → bank.
func (ex *Executor) dispatch(s *shard) {
	var g grants
	s.mu.Lock()
	ex.mu.Lock()
	for ex.grantLocked(s, &g) {
	}
	ex.mu.Unlock()
	s.mu.Unlock()
	ex.deliver(&g, s)
}

// grants is what one locked episode decided and its caller carries out
// once the locks drop: the tasks granted a slot are resumed — spawned, or
// sent their grant — so the channel send and the runtime readying the
// receiver stay outside every critical section; a slot owed to another
// shard is dispatched there, or the all-parked verdict declared.
type grants struct {
	n       int
	tasks   [4]*task // nil: spawn ids[i]
	ids     [4]int
	owed    *shard
	verdict bool
}

// deliver carries out an episode's grants for shard s. A full batch may
// have left s's work queued behind free slots, so s is dispatched again.
func (ex *Executor) deliver(g *grants, s *shard) {
	for i := 0; i < g.n; i++ {
		if t := g.tasks[i]; t != nil {
			t.grant <- struct{}{}
		} else {
			go ex.taskMain(g.ids[i])
		}
	}
	if g.n == len(g.ids) {
		ex.dispatch(s)
	}
	if g.verdict {
		ex.declareDeadlock()
	} else if g.owed != nil {
		ex.dispatch(g.owed)
	}
}

// grantLocked grants a run slot to the shard's next queued task, recording
// it in g for deliver, and reports whether it did. When the shard has work
// but no slot is to be had (nor grown from the budget) it registers the
// shard in the bank's hand-off queue, and the next released slot is
// delivered to it. Both locks are held.
func (ex *Executor) grantLocked(s *shard, g *grants) bool {
	if g.n == len(g.ids) || s.qHead >= len(s.runQ) || ex.aborted {
		return false
	}
	if ex.freeSlots == 0 && !ex.growLocked() {
		if !ex.inPending[s.idx] {
			ex.inPending[s.idx] = true
			ex.pendingQ, ex.pendHead = enqueue(ex.pendingQ, ex.pendHead, s.idx)
		}
		return false
	}
	ex.freeSlots--
	ex.runnable--
	if held := ex.baseSlots + ex.extras - ex.freeSlots; held > ex.statMaxSlots {
		ex.statMaxSlots = held
	}
	id := s.runQ[s.qHead]
	s.qHead++
	t := s.taskIn(id, ex.nShards)
	t.state = stateRunning
	t.hasSlot = true
	g.ids[g.n] = id
	if t.started {
		g.tasks[g.n] = t
	} else {
		g.tasks[g.n] = nil
		t.started = true
		s.spawned++
		ex.resident++
		if ex.resident > ex.peakResident {
			ex.peakResident = ex.resident
		}
	}
	g.n++
	return true
}

// releaseSlotLocked gives up the run slot of a task of shard s that has
// just parked or finished (the caller has counted it); both locks are
// held. If s has queued work and is next in line — the head of the
// hand-off queue, or that queue is empty — the slot goes straight to its
// deque head and s re-registers if work remains; it reports this hand-off.
// Otherwise the slot is freed, the verdict checked, and the longest-waiting
// shard popped into g for deliver to dispatch.
func (ex *Executor) releaseSlotLocked(s *shard, g *grants) (handed bool) {
	ex.freeSlots++
	if g.verdict = ex.deadlockedLocked(); g.verdict {
		return false
	}
	if ex.aborted {
		ex.trimExtrasLocked(true)
		return false
	}
	if s.qHead < len(s.runQ) && (ex.pendHead == len(ex.pendingQ) || ex.pendingQ[ex.pendHead] == s.idx) {
		ex.popPendingLocked()
		for ex.grantLocked(s, g) {
		}
		return true
	}
	if next := ex.popPendingLocked(); next >= 0 {
		g.owed = ex.shards[next]
	} else {
		ex.trimExtrasLocked(false)
	}
	return false
}

// popPendingLocked pops the longest-waiting slot-starved shard, or -1.
func (ex *Executor) popPendingLocked() int {
	if ex.pendHead >= len(ex.pendingQ) {
		return -1
	}
	idx := ex.pendingQ[ex.pendHead]
	ex.pendHead++
	ex.inPending[idx] = false
	return idx
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

// trimExtrasLocked returns extra budget units that have no pending work to
// serve. With force, every free unit is returned (teardown).
func (ex *Executor) trimExtrasLocked(force bool) {
	if !force && ex.pendHead < len(ex.pendingQ) {
		return
	}
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
	s := ex.shardOf(id)
	s.mu.Lock()
	t := s.taskIn(id, ex.nShards)
	t.state = stateDone
	var g grants
	ex.mu.Lock()
	ex.finished++
	ex.resident--
	if t.hasSlot {
		ex.releaseSlotLocked(s, &g)
	}
	ex.mu.Unlock()
	t.hasSlot = false
	s.mu.Unlock()
	ex.deliver(&g, s)
	ex.wg.Done()
}

// declareDeadlock records the verdict, stops dispatching, and wakes every
// parked task poisoned. Each poisoned task reports the deadlock from its
// own Park call — on a goroutine that has the caller's panic recovery
// machinery up-stack — and can then finish, so Wait terminates when the
// task bodies recover. The detecting goroutine is unique (it made the
// parked+finished count hit the task total) and the state is frozen —
// every task is parked or done and no unpark is in flight — so the sweep
// over the shards reads a stable snapshot. A parked task never has a
// pending grant, so the buffered sends cannot block.
func (ex *Executor) declareDeadlock() {
	ex.mu.Lock()
	ex.abortLocked()
	n := ex.nTasks
	ex.mu.Unlock()
	var ids []int
	for id := 0; id < n; id++ {
		s := ex.shardOf(id)
		s.mu.Lock()
		if s.taskIn(id, ex.nShards).state == stateParked {
			ids = append(ids, id)
		}
		s.mu.Unlock()
	}
	ex.mu.Lock()
	ex.deadIDs = ids
	ex.parked -= len(ids)
	ex.mu.Unlock()
	for _, id := range ids {
		s := ex.shardOf(id)
		s.mu.Lock()
		t := s.taskIn(id, ex.nShards)
		t.poisoned = true
		t.state = stateRunning // off the parked set; holds no slot
		s.mu.Unlock()
		t.grant <- struct{}{}
	}
}

// deadlockedLocked reports the all-parked condition: every unfinished task
// is parked and none holds a wake token. Tokens can only belong to
// non-parked tasks (Park consumes them before blocking), every in-flight
// batched wake is matched by a runnable (non-parked) task, and the
// delivering sender of any batch is itself live — so parked+finished
// covering all tasks is exact.
func (ex *Executor) deadlockedLocked() bool {
	return !ex.aborted && ex.parked > 0 && ex.parked+ex.finished == ex.nTasks
}

func (ex *Executor) abortLocked() {
	if ex.aborted {
		return
	}
	ex.aborted = true
	ex.trimExtrasLocked(true)
}

func (ex *Executor) reportDeadlock(parked []int) {
	if ex.opts.OnDeadlock != nil {
		ex.opts.OnDeadlock(parked)
	}
	panic(fmt.Sprintf("rankexec: deadlock: all live tasks parked: %v", parked))
}
