package vmpi

// Replayer.Group: a replay's independent charges on a second core. A group
// is n tasks that each charge a set of ranks no other task of the group
// names — the comparators of one step of a sorting network. A charge
// touches only its own ranks' slots (clock, counters, trace events) and
// sendClocks is a pure function, so the tasks may run in any order, on any
// goroutine: every rank still sees its own charges in program order, and
// clocks, counters and events come out bit for bit.
//
// A group of more than groupGrain tasks is cut into tiles of groupGrain
// that the replaying goroutine and one helper take from a shared counter.
// The helper is started by the first such group of a replay — if a unit of
// hostpar's shared budget is free — serves every later group, spins briefly
// between groups and then parks, and is joined, its unit returned, before
// the replay's ranks wake. One helper for the whole replay, not one per
// group: a goroutine start costs too much against a group of a few hundred
// microseconds.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hostpar"
)

// groupGrain is the tile of a parallel group, and the largest group that
// runs inline without asking for a helper.
const groupGrain = 64

// helperSpin is how many times an idle helper looks for the next group
// before it parks: enough to bridge the gap between two groups — the
// replaying goroutine finishing its last tile, about ten microseconds —
// and no more, so that a replay's serial stretches leave the core to the
// rest of the process.
const helperSpin = 20000

// Group runs fn(i) for every i in [0, n) and returns when all have run. The
// tasks may run in any order and concurrently, so each must charge, through
// Send, Recv and Compute only, ranks that no other task of the group names,
// and touch nothing shared but what its own ranks own: each rank's charges
// must still come in its program order. Allgather, Alltoall and
// AlltoallLinear charge every rank and share the rendezvous' scratch, so
// they, and a nested Group, panic inside a group. A panic in a task ends
// its tile and is re-raised here once every tile has finished — the lowest
// i's, as the serial loop would raise. A group of at
// most groupGrain tasks, one at GOMAXPROCS=1 and one that finds no free
// unit in hostpar's shared budget run inline in order; under vmpidebug
// every group does, and panics if two of its tasks charge one rank.
func (h *Replayer) Group(n int, fn func(i int)) {
	h.enter("Group")
	h.grouped = true
	defer func() { h.grouped = false }()
	if debugGroup(h.g, n, fn) {
		return
	}
	if n <= groupGrain || !h.help() {
		for i := range n {
			fn(i)
		}
		return
	}
	j := &groupJob{fn: fn, n: n, tiles: (n + groupGrain - 1) / groupGrain, failed: n}
	j.left.Store(int64(j.tiles))
	h.hp.publish(j)
	j.work()
	for j.left.Load() > 0 {
		runtime.Gosched()
	}
	if j.failed < n {
		panic(j.fail)
	}
}

// enter panics if a charge that touches every rank is made inside a group.
func (h *Replayer) enter(what string) {
	if h.grouped {
		panic(fmt.Sprintf("vmpi: Replayer.%s inside a Group", what))
	}
}

// help reports whether the replay has its helper, starting it if a budget
// unit is free.
func (h *Replayer) help() bool {
	if h.hp == nil && runtime.GOMAXPROCS(0) > 1 && hostpar.SharedBudget().TryAcquire() {
		h.hp = &replayHelper{wake: make(chan struct{}, 1), done: make(chan struct{})}
		go h.hp.run()
	}
	return h.hp != nil
}

// join stops the helper, if the replay started one, waits for it to
// return and gives its budget unit back.
func (h *Replayer) join() {
	if h.hp != nil {
		h.hp.publish(stopJob)
		<-h.hp.done
		hostpar.SharedBudget().Release()
		h.hp = nil
	}
}

// groupJob is one parallel group: its tasks, its tiles, the next tile to
// hand out and how many are yet to finish, and the lowest task that
// panicked (n if none) with its value.
type groupJob struct {
	fn         func(int)
	n, tiles   int
	next, left atomic.Int64
	mu         sync.Mutex
	failed     int
	fail       any
}

// stopJob tells the helper to return.
var stopJob = new(groupJob)

// work runs tiles until none is left to take.
func (j *groupJob) work() {
	for t := int(j.next.Add(1)) - 1; t < j.tiles; t = int(j.next.Add(1)) - 1 {
		j.tile(t)
	}
}

// tile runs tile t's tasks in order. A panic ends the tile and is kept if
// its task is the lowest that panicked.
func (j *groupJob) tile(t int) {
	i := t * groupGrain
	defer func() {
		if p := recover(); p != nil {
			j.mu.Lock()
			if i < j.failed {
				j.failed, j.fail = i, p
			}
			j.mu.Unlock()
		}
		j.left.Add(-1)
	}()
	for end := min(i+groupGrain, j.n); i < end; i++ {
		j.fn(i)
	}
}

// replayHelper is the goroutine a replay's parallel groups share with the
// replaying one. job is the group it takes tiles from; parked says it
// waits on wake for the next.
type replayHelper struct {
	job    atomic.Pointer[groupJob]
	parked atomic.Bool
	wake   chan struct{}
	done   chan struct{}
}

// publish hands the helper its next group, waking it if it parked.
func (hp *replayHelper) publish(j *groupJob) {
	hp.job.Store(j)
	if hp.parked.CompareAndSwap(true, false) {
		hp.wake <- struct{}{}
	}
}

func (hp *replayHelper) run() {
	defer close(hp.done)
	for j := (*groupJob)(nil); ; {
		if j = hp.await(j); j == stopJob {
			return
		}
		j.work()
	}
}

// await returns the first group published after last: it looks helperSpin
// times, then parks until publish wakes it. A helper that finds a group
// after announcing that it parks takes back the announcement, or the wake
// publish sent for it.
func (hp *replayHelper) await(last *groupJob) *groupJob {
	for spin := 0; ; spin++ {
		if j := hp.job.Load(); j != last {
			return j
		}
		if spin < helperSpin {
			continue
		}
		hp.parked.Store(true)
		if j := hp.job.Load(); j != last {
			if !hp.parked.CompareAndSwap(true, false) {
				<-hp.wake
			}
			return j
		}
		<-hp.wake
	}
}
