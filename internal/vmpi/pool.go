package vmpi

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Message-buffer pooling.
//
// Every point-to-point Send deep-copies its payload (distributed-memory
// semantics), so the messaging layer used to allocate one garbage slice per
// message. The pool below recycles those buffers through size classes
// (powers of two), typed per element type. It changes nothing observable:
// message sizes, ordering, and virtual costs are computed exactly as before
// — only the host allocation rate drops.
//
// Buffer lifecycle. A pooled buffer goes round one cycle: drawn from the
// pool, carried by a message, released into the pool by its receiver, drawn
// again. A copying send (Send/Sendrecv/…) draws for its caller: it copies the
// payload into a pooled buffer. A sender that builds its payload in place
// draws the buffer itself with Owned, fills it and relinquishes it with
// SendOwned/AlltoallOwned — no copy, and what the receiver's Release hands
// back is what the next step's Owned draws (the fft slab transposes and the
// pnfft mesh all-to-alls run this way). Either way the draw and the release
// meet in the in-use meter (PoolStats.InUseBytes).
//
// Release also accepts a foreign buffer — one the pool never handed out — and
// keeps it when its capacity happens to be a class size. That recycles the
// memory but drives the meter down with no draw to match. The sites that
// still relinquish foreign buffers are fmm/solver.go (the multipole key/value
// and ghost parts, append-grown) and redist's gather. The latter stays a make
// of exactly the block's length on purpose: exchange-dense sends 4-record
// blocks, which the smallest class (32 elements) would round up eightfold
// for as long as they are in flight.
//
// Ownership protocol. A buffer that crosses the messaging layer is in one
// of two states, and every rule below is enforced statically by the
// ownedbuf analyzer (cmd/parlint) and dynamically by the vmpidebug checker
// (debug_on.go):
//
//   - Private: exactly one rank owns it. Send/Sendrecv copy into a pooled
//     buffer; the receiver owns the buffer it gets from Recv and may keep,
//     mutate or forward it. A sole owner that is done with a private slice
//     may hand it back with Release (or ReleaseBlocks) — always optional,
//     at most once. SendOwned/AlltoallOwned transfer the caller's buffer
//     into the message with no copy; the caller must not touch the slice
//     (or any alias of it) afterwards.
//   - Shared read-only: the fan-out half of the tree collectives (Bcast,
//     and through it Allreduce, Allgather and AllgatherBlocks above the
//     ring limit, and the resize release) puts a payload larger than the
//     inline limit into ONE immutable buffer, and every hop of the binomial
//     tree forwards a reference to it. The slices Bcast, Allreduce and
//     Allgather return are therefore views that up to P ranks hold at once:
//     read them, copy out of them, pass them to copying sends — never store
//     into them, append onto them, or relinquish them to
//     SendOwned/AlltoallOwned. The Go collector is the reference count: a
//     shared buffer's capacity is never a pool size class (sharedCap), so
//     Release of a shared view is legal and does nothing, and the buffer
//     dies with its last holder.

const (
	poolMinBits = 5  // smallest pooled class: 32 elements
	poolMaxBits = 24 // largest pooled class: 16M elements
)

// poolCounters meter the pool process-wide. They are host-domain
// statistics (they depend on GC timing and host scheduling, not on the
// virtual machine) and must never feed the virtual event stream or golden
// exports; paperbench surfaces them through the host-side observability
// buffer and BENCH json. Atomics keep the hot path lock-free — vmpi is not
// part of the determinism-analyzer hot set precisely because its host-side
// machinery may use them.
var poolCounters struct {
	gets     atomic.Int64
	puts     atomic.Int64
	misses   atomic.Int64
	unpooled atomic.Int64
	waste    atomic.Int64
	// inUse tracks the class-capacity bytes of pooled buffers currently
	// checked out (getSlice minus Release); highWater is its maximum since
	// process start or the last ResetPoolStats. Together they are the pool
	// meter the redistribution planner's peak-bytes gauge is compared
	// against: the planner bounds what it stages, the pool reports what was
	// actually resident.
	inUse     atomic.Int64
	highWater atomic.Int64
}

// noteInUse adjusts the in-use byte meter by delta and ratchets the
// high-water mark. The CAS loop keeps the mark exact under concurrent
// checkouts.
func noteInUse(delta int64) {
	v := poolCounters.inUse.Add(delta)
	if delta <= 0 {
		return
	}
	for {
		hw := poolCounters.highWater.Load()
		if v <= hw || poolCounters.highWater.CompareAndSwap(hw, v) {
			return
		}
	}
}

// PoolStats is a snapshot of the message-buffer pool counters since
// process start (or the last ResetPoolStats).
type PoolStats struct {
	// Gets counts pooled-range buffer requests; Misses of them found no
	// recycled buffer and allocated fresh.
	Gets, Misses int64
	// Puts counts buffers handed back via Release.
	Puts int64
	// Unpooled counts requests outside the pooled size-class range
	// (always freshly allocated, never recycled).
	Unpooled int64
	// WasteBytes accumulates, over all pooled gets, the size-class
	// capacity minus the requested length — the oversized-class overhead
	// that grows when message sizes sit just above a power of two. At
	// 1024+ ranks this is the number to watch: a high waste-to-payload
	// ratio means the size classes are mis-sized for the traffic.
	WasteBytes int64
	// InUseBytes is the class-capacity bytes of pooled buffers currently
	// checked out: draws (copying sends, Owned) not yet released. Along a
	// draw → relinquish → release path it returns to where it started
	// (TestSlabTransposeBalancesPool, pnfft's TestFarFieldBalancesPool).
	// Buffers a receiver keeps forever stay counted, and a released foreign
	// buffer of class shape (see the lifecycle note above) is subtracted
	// without ever having been added, so process-wide the value is a meter,
	// not an invariant.
	InUseBytes int64
	// HighWaterBytes is the maximum InUseBytes observed since process start
	// or the last ResetPoolStats — the pool-side peak that the
	// redistribution planner's budget is meant to cap.
	HighWaterBytes int64
}

// PoolStatsSnapshot returns the current pool counters.
func PoolStatsSnapshot() PoolStats {
	return PoolStats{
		Gets:           poolCounters.gets.Load(),
		Misses:         poolCounters.misses.Load(),
		Puts:           poolCounters.puts.Load(),
		Unpooled:       poolCounters.unpooled.Load(),
		WasteBytes:     poolCounters.waste.Load(),
		InUseBytes:     poolCounters.inUse.Load(),
		HighWaterBytes: poolCounters.highWater.Load(),
	}
}

// ResetPoolStats zeroes the pool counters (benchmark bracketing). The
// in-use byte meter is not zeroed — buffers checked out before the reset
// are still resident — and the high-water mark restarts from it.
func ResetPoolStats() {
	poolCounters.gets.Store(0)
	poolCounters.puts.Store(0)
	poolCounters.misses.Store(0)
	poolCounters.unpooled.Store(0)
	poolCounters.waste.Store(0)
	poolCounters.highWater.Store(poolCounters.inUse.Load())
}

// typedPool holds one sync.Pool per size class for a single element type.
// Entries are unsafe.Pointers to the class-capacity backing array:
// pointer-shaped values store directly in the interface word, so a
// Release/getSlice round trip allocates nothing (a *[]T box would cost
// one heap object per Release). The element type and the class fix the
// slice header, so getSlice reconstructs it losslessly.
type typedPool struct {
	classes [poolMaxBits + 1]sync.Pool
}

// poolRegistry maps reflect.Type (of *T) to *typedPool. Looked up once per
// Get/Release; sync.Map is contention-free for the read-mostly case.
var poolRegistry sync.Map

func poolOf[T any]() *typedPool {
	t := reflect.TypeOf((*T)(nil))
	if p, ok := poolRegistry.Load(t); ok {
		return p.(*typedPool)
	}
	p, _ := poolRegistry.LoadOrStore(t, &typedPool{})
	return p.(*typedPool)
}

// classBits returns the size-class exponent for a capacity, or -1 when the
// capacity is outside the pooled range.
func classBits(n int) int {
	if n < 1<<poolMinBits || n > 1<<poolMaxBits {
		return -1
	}
	b := poolMinBits
	for 1<<b < n {
		b++
	}
	return b
}

// getSlice returns a length-n slice, recycling a pooled buffer when one of
// the right class is available. The contents are unspecified; callers must
// overwrite all n elements.
func getSlice[T any](n int) []T {
	b := classBits(n)
	if b < 0 {
		poolCounters.unpooled.Add(1)
		return make([]T, n)
	}
	poolCounters.gets.Add(1)
	poolCounters.waste.Add(int64(1<<b-n) * int64(sizeOf[T]()))
	noteInUse(int64(1<<b) * int64(sizeOf[T]()))
	p := poolOf[T]()
	if v := p.classes[b].Get(); v != nil {
		s := unsafe.Slice((*T)(v.(unsafe.Pointer)), 1<<b)[:n]
		debugGet(s)
		return s
	}
	poolCounters.misses.Add(1)
	return make([]T, n, 1<<b)
}

// Owned returns an empty buffer with capacity ≥ n, drawn from the
// message-buffer pool: the buffer to build a payload in before relinquishing
// it with SendOwned/AlltoallOwned. The receiver's Release then returns to the
// pool exactly what the sender drew, so a steady exchange reuses the same
// buffers step after step. A request below the smallest size class is served
// from that class, so callers need not know the classes to stay pooled. The
// caller owns the buffer (contents beyond its length unspecified); one it
// does not send it may Release.
func Owned[T any](n int) []T { return getSlice[T](max(n, 1<<poolMinBits))[:0] }

// poolClass returns the size class of a buffer whose capacity is exactly a
// pooled class size, or -1: only such buffers enter the pool.
func poolClass(c int) int {
	if c&(c-1) != 0 {
		return -1
	}
	return classBits(c)
}

// sharedCap returns the capacity to allocate for an n-element shared
// broadcast buffer: n, bumped by one where n is itself a pool size class,
// so a shared buffer is never pool-shaped and Release cannot recycle
// memory other ranks still read.
func sharedCap(n int) int {
	if poolClass(n) >= 0 {
		return n + 1
	}
	return n
}

// Release hands a slice back to the message-buffer pool. It is safe to call
// on any slice (non-poolable capacities — shared broadcast views among them
// — are ignored), but the caller must be the sole owner of a pooled buffer
// and must not use the slice afterwards. Subslices of shared arrays must
// never be released.
func Release[T any](s []T) {
	c := cap(s)
	b := poolClass(c)
	if b < 0 {
		debugUnshare(s)
		return
	}
	poolCounters.puts.Add(1)
	noteInUse(-int64(c) * int64(sizeOf[T]()))
	full := s[:0:c]
	debugRelease(full)
	poolOf[T]().classes[b].Put(unsafe.Pointer(unsafe.SliceData(full)))
}

// ReleaseBlocks releases every block of a received block set (e.g. the
// result of Alltoall) after the caller has copied out what it needs.
func ReleaseBlocks[T any](blocks [][]T) {
	for _, b := range blocks {
		Release(b)
	}
}
