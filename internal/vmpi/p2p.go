package vmpi

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"repro/internal/netmodel"
	"repro/internal/obs"
)

// Point-to-point communication.
//
// Payloads are slices of flat element types (no interior pointers); they are
// deep-copied at send time so ranks never share writable memory, mirroring
// the distributed-memory semantics of MPI (the one shared thing is the
// immutable result of an Allreduce or Allgather, see pool.go). Message
// sizes for the network model are computed from the element size, so
// element types must not contain slices, maps, or strings.

// sizeOf returns the in-memory size of T in bytes.
func sizeOf[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// typeID returns the interned identity of element type T. Pointer types are
// interned by the runtime, so two calls for the same T return the identical
// reflect.Type and a receive's type check is one comparison, no allocation.
func typeID[T any]() reflect.Type {
	return reflect.TypeOf((*T)(nil))
}

// message is a unit of point-to-point communication between world ranks:
// one envelope carrying one payload buffer — a pooled copy for Send and
// SendVal, the sender's own buffer for the tests' SendOwned. Envelopes are
// recycled through msgPool, so a steady exchange whose receivers release
// what they get allocates nothing per message.
type message struct {
	// next links the envelope into its mailbox's arrival list while it
	// waits there (nil otherwise): queueing a message is one pointer store.
	next   *message
	src    int // sender's rank within the communicator's context
	tag    int
	ctx    int64 // communicator context id
	arrive float64
	bytes  int
	// pptr/plen/pcap are the exploded slice header of the payload buffer.
	// Storing the three words directly — instead of boxing the []T into an
	// any field — keeps the send path allocation-free (a slice-to-interface
	// conversion heap-allocates the header). pptr is an unsafe.Pointer, so
	// the GC keeps the backing array alive while the message is in flight;
	// Recv[T] reconstructs the slice after checking typ against its own
	// element type, which is exactly the guarantee a type assertion would
	// give.
	pptr unsafe.Pointer
	plen int
	pcap int
	typ  reflect.Type // typeID of the payload's element type
}

// msgPool recycles message envelopes.
var msgPool = sync.Pool{New: func() any { return new(message) }}

func getMsg() *message { return msgPool.Get().(*message) }

// putMsg returns a consumed envelope to the pool. Callers must have
// extracted everything they need; the payload reference is dropped here so
// pooled envelopes never pin transferred buffers.
func putMsg(m *message) {
	m.pptr = nil
	m.plen, m.pcap = 0, 0
	m.typ = nil
	msgPool.Put(m)
}

// Send sends data to rank dst with the given tag (blocking, eager). The
// payload is copied into a pooled buffer, of the smallest size class when it
// is shorter than that (Owned), so the caller may reuse data immediately and
// the receiver's Release recycles the copy. User tags must be non-negative;
// negative tags are reserved for collectives.
func Send[T any](c *Comm, data []T, dst, tag int) {
	debugUse(data)
	sendRaw(c, append(Owned[T](len(data)), data...), len(data)*sizeOf[T](), dst, tag)
}

// SendVal sends a single value to rank dst: Send(c, []T{v}, dst, tag)
// without the caller's slice, the value written straight into a pooled
// buffer that RecvVal releases. Pair with RecvVal; a slice Recv of one
// element also matches.
func SendVal[T any](c *Comm, v T, dst, tag int) {
	sendRaw(c, append(Owned[T](1), v), sizeOf[T](), dst, tag)
}

// Recv blocks until a message from rank src with the given tag arrives and
// returns its payload, which the caller owns (and may Release).
//
//parlint:hotalloc
func Recv[T any](c *Comm, src, tag int) []T {
	m := recvRaw(c, src, tag)
	if want := typeID[T](); m.typ != want {
		panic(fmt.Sprintf("vmpi: Recv type mismatch: got []%s from rank %d tag %d, want []%s",
			m.typ.Elem(), src, tag, want.Elem()))
	}
	var data []T
	if m.pptr != nil {
		data = unsafe.Slice((*T)(m.pptr), m.pcap)[:m.plen]
	}
	putMsg(m)
	return data
}

// RecvVal receives a single-value message from rank src, the counterpart
// of SendVal (a one-element slice Send also matches), and releases its
// buffer.
func RecvVal[T any](c *Comm, src, tag int) T {
	data := Recv[T](c, src, tag)
	if len(data) != 1 {
		panic(fmt.Sprintf("vmpi: RecvVal of %d-element message from rank %d tag %d", len(data), src, tag))
	}
	v := data[0]
	Release(data)
	return v
}

// sendRaw enqueues a message for dst carrying payload in a pooled envelope.
// The slice header is exploded into the envelope's raw words (see message)
// so the send allocates nothing.
//
//parlint:hotalloc
func sendRaw[T any](c *Comm, payload []T, bytes, dst, tag int) {
	m := getMsg()
	m.typ = typeID[T]()
	m.pptr = unsafe.Pointer(unsafe.SliceData(payload))
	m.plen = len(payload)
	m.pcap = cap(payload)
	sendMsg(c, m, bytes, dst, tag)
}

// sendMsg is the send core: it charges injection cost to the sender, stamps
// the arrival time from the network model, enqueues the envelope, and —
// when the destination is waiting for exactly this message — wakes it. The
// caller has filled the envelope's payload fields; src/tag/ctx/timing are
// stamped here.
//
//parlint:hotalloc
func sendMsg(c *Comm, m *message, bytes, dst, tag int) {
	if dst < 0 || dst >= len(c.members) {
		panic(fmt.Sprintf("vmpi: Send to invalid rank %d (size %d)", dst, len(c.members)))
	}
	srcInst := c.inst(c.rank)
	dstInst := c.inst(dst)
	dstW := c.world(dst)
	// The model is charged by node position (world rank of the epoch the
	// instance was admitted in), which stays physically meaningful across
	// resizes — instance ids grow without bound, node positions are reused.
	// arrive stays local past the put: the receiver may consume and recycle
	// the envelope the moment it is enqueued.
	start, after, arrive := sendClocks(c.rt.model, c.st.clock, srcInst.node, dstInst.node, bytes)
	c.st.clock = after
	c.st.bytesSent += int64(bytes)
	c.st.msgsSent++
	m.src = c.rank
	m.tag = tag
	m.ctx = c.ctx
	m.bytes = bytes
	m.arrive = arrive
	if dstInst.box.put(m) {
		// The destination recorded a wait for this key, so it is parked or
		// about to park (a wake that comes first leaves a token its Park
		// consumes): wake it now. Every other delivery (a send to self
		// included — a sender is not waiting) is found by its receive
		// without a wake.
		c.rt.exec.Unpark(dstW)
	}
	if c.rt.trace {
		c.st.rec.Record(obs.Event{
			Kind: obs.KindSend, Name: c.st.currentPhase,
			Peer: dstW, Tag: tag, Bytes: bytes,
			T: start, T2: arrive,
		})
	}
}

// sendClocks charges a send leaving at clock: it starts after the send
// overhead, holds the port for the injection time and arrives after the
// network cost. sendMsg and the collectives' replay both charge through it.
func sendClocks(m netmodel.Model, clock float64, src, dst, bytes int) (start, after, arrive float64) {
	start = clock + sendOverhead
	return start, start + m.Injection(bytes), start + m.Cost(src, dst, bytes)
}

// recvClock completes a receive at the later of clock and arrival, plus the
// receive overhead.
func recvClock(clock, arrive float64) float64 {
	if arrive > clock {
		clock = arrive
	}
	return clock + recvOverhead
}

// recvRaw blocks for a matching message and advances the receiver clock to
// the message arrival time.
//
//parlint:hotalloc
func recvRaw(c *Comm, src, tag int) *message {
	if src < 0 || src >= len(c.members) {
		panic(fmt.Sprintf("vmpi: Recv from invalid rank %d (size %d)", src, len(c.members)))
	}
	m := c.inst(c.rank).box.take(c, src, tag)
	c.st.clock = recvClock(c.st.clock, m.arrive)
	if c.rt.trace {
		c.st.rec.Record(obs.Event{
			Kind: obs.KindArrive, Name: c.st.currentPhase,
			Peer: c.world(src), Bytes: m.bytes,
			T: m.arrive, T2: c.st.clock,
		})
	}
	return m
}
