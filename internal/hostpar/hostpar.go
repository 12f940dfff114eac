// Package hostpar provides deterministic intra-rank host parallelism for
// the compute kernels of the solvers and the replayed steps of vmpi.
//
// The virtual machine (package vmpi) models distributed-memory parallelism:
// every rank is a goroutine with a virtual clock, and all performance
// results are virtual seconds derived from the cost model. Host parallelism
// is orthogonal: it only shrinks the real wall-clock time of running the
// experiments, and must never change what the experiments compute. Package
// hostpar therefore enforces two invariants:
//
//   - Tiling is a pure function of the problem size and the grain, never of
//     GOMAXPROCS or scheduling. A kernel parallelized with For runs the
//     exact same tile decomposition on every host.
//   - Callers keep all floating-point accumulation inside a tile (or reduce
//     per-tile partials in tile order), so results are bit-identical
//     regardless of how many workers execute the tiles.
//
// Kernels running under For must not touch a vmpi.Comm: communicators are
// bound to their rank's goroutine, and virtual time must not observe host
// concurrency. Charge virtual cost before or after the parallel section.
package hostpar

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For's helpers are persistent workers, started with the package, one per
// core but the caller's. A call takes a unit of the process-wide
// host-compute budget (governor.go) for every idle worker it recruits and
// gives every unit back before it returns. Acquisition is non-blocking: a
// call that finds no free unit or no idle worker runs its remaining tiles
// itself, so parallel sections can never deadlock. A worker's hand-off is
// the cheap part of a call — every rank goroutine of the virtual machine
// may enter a parallel section, and a replayed sort enters one per network
// step, a few hundred microseconds apart.

// helperSpin is how many times an idle worker looks for its next call's
// tiles before it parks: about ten microseconds, enough to bridge the gap
// between two calls in a row — a replay's network steps — and no more, so
// that serial stretches leave the core to the rest of the process.
const helperSpin = 20000

// call is one parallel For: its tiles, the next tile to hand out, the
// helpers yet to finish, and the lowest tile that panicked (tiles if none)
// with its value.
type call struct {
	fn       func(lo, hi int)
	n, grain int
	tiles    int
	next     atomic.Int64
	helpers  atomic.Int32
	mu       sync.Mutex
	failed   int
	fail     any
}

// worker is a persistent helper. busy says a call has recruited it; job is
// the call it has yet to pick up; parked says it waits on wake for one.
type worker struct {
	job    atomic.Pointer[call]
	busy   atomic.Bool
	parked atomic.Bool
	wake   chan struct{}
}

var workers = make([]*worker, max(runtime.NumCPU()-1, 1))

func init() {
	for i := range workers {
		workers[i] = &worker{wake: make(chan struct{}, 1)}
		go workers[i].run()
	}
}

// Tiles returns the number of grain-sized tiles covering [0, n). It depends
// only on n and grain.
func Tiles(n, grain int) int {
	if n <= 0 {
		return 0
	}
	return (n + max(grain, 1) - 1) / max(grain, 1)
}

// For executes fn(lo, hi) for every grain-sized tile of [0, n), possibly
// concurrently. The tile decomposition depends only on n and grain. Tiles
// may run in any order and on any goroutine; fn must confine its writes to
// per-tile state (disjoint output ranges, or a per-tile partial obtained
// from the tile bounds) so the result is independent of the schedule. A
// panic ends its tile; once every tile has run, For re-raises on the caller
// the value of the lowest tile that panicked, as the serial loop would.
func For(n, grain int, fn func(lo, hi int)) {
	grain = max(grain, 1)
	tiles := Tiles(n, grain)
	var c *call
	recruited, want := 0, 0
	if tiles > 1 {
		want = min(runtime.GOMAXPROCS(0), tiles) - 1
	}
	for ; recruited < want && shared.TryAcquire(); recruited++ {
		w := idle()
		if w == nil {
			shared.Release()
			break
		}
		if c == nil {
			c = &call{fn: fn, n: n, grain: grain, tiles: tiles, failed: tiles}
		}
		c.helpers.Add(1)
		w.give(c)
	}
	if c == nil {
		for lo := 0; lo < n; lo += grain {
			fn(lo, min(lo+grain, n))
		}
		return
	}
	c.work()
	for c.helpers.Load() > 0 {
		runtime.Gosched()
	}
	for range recruited {
		shared.Release()
	}
	if c.failed < tiles {
		panic(c.fail)
	}
}

// ForTiles executes fn(t, lo, hi) for every grain-sized tile of [0, n),
// passing the tile index so callers can write per-tile partial results into
// a slice indexed by t and reduce them in tile order afterwards.
func ForTiles(n, grain int, fn func(t, lo, hi int)) {
	grain = max(grain, 1)
	For(n, grain, func(lo, hi int) {
		fn(lo/grain, lo, hi)
	})
}

// work runs tiles until none is left to take.
func (c *call) work() {
	for t := int(c.next.Add(1)) - 1; t < c.tiles; t = int(c.next.Add(1)) - 1 {
		c.tile(t)
	}
}

// tile runs tile t. A panic ends it and is kept if t is the lowest tile
// that panicked.
func (c *call) tile(t int) {
	defer func() {
		if p := recover(); p != nil {
			c.mu.Lock()
			if t < c.failed {
				c.failed, c.fail = t, p
			}
			c.mu.Unlock()
		}
	}()
	lo := t * c.grain
	c.fn(lo, min(lo+c.grain, c.n))
}

// idle recruits an idle worker, or returns nil if none is.
func idle() *worker {
	for _, w := range workers {
		if !w.busy.Load() && w.busy.CompareAndSwap(false, true) {
			return w
		}
	}
	return nil
}

// give hands a recruited worker its call, waking it if it parked.
func (w *worker) give(c *call) {
	w.job.Store(c)
	if w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// run takes the calls given to the worker: it works each one's tiles, is
// idle again, and then tells the call that it is done — in that order, so
// that the call's caller finds it idle for its next call.
func (w *worker) run() {
	for {
		c := w.await()
		c.work()
		w.busy.Store(false)
		c.helpers.Add(-1)
	}
}

// await returns the worker's next call: it looks helperSpin times, then
// parks until give wakes it. A worker that finds its call after announcing
// that it parks takes back the announcement, or the wake give sent for it.
func (w *worker) await() *call {
	for spin := 0; ; spin++ {
		if c := w.job.Load(); c != nil {
			w.job.Store(nil)
			return c
		}
		if spin < helperSpin {
			continue
		}
		w.parked.Store(true)
		if c := w.job.Load(); c != nil {
			if !w.parked.CompareAndSwap(true, false) {
				<-w.wake
			}
			w.job.Store(nil)
			return c
		}
		<-w.wake
	}
}
