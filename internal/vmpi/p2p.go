package vmpi

import (
	"fmt"
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

// Send sends data to rank dst with the given tag (blocking, eager). The
// payload is copied; the caller may reuse data immediately. User tags must
// be non-negative; negative tags are reserved for collectives. Payloads up
// to inlineMaxBytes of flat element types travel inline in a pooled
// envelope (see msg.go) — same wire behaviour, no payload allocation.
func Send[T any](c *Comm, data []T, dst, tag int) {
	bytes := len(data) * sizeOf[T]()
	if bytes <= inlineMaxBytes && inlineable[T]() {
		sendInline(c, data, bytes, dst, tag)
		return
	}
	sendRaw(c, copySlice(data), bytes, dst, tag)
}

// SendOwned sends data to rank dst, transferring ownership of the buffer
// into the message instead of deep-copying it. The caller must not read or
// write data — or any alias of its backing array — after the call; the
// receiving rank becomes the sole owner. Message size, timing, and virtual
// cost are identical to Send. Use it for freshly built per-destination
// buffers that die at the send.
func SendOwned[T any](c *Comm, data []T, dst, tag int) {
	debugTransfer(data)
	sendRaw(c, data, len(data)*sizeOf[T](), dst, tag)
}

// Recv blocks until a message from rank src with the given tag arrives and
// returns its payload.
func Recv[T any](c *Comm, src, tag int) []T {
	m := recvRaw(c, src, tag)
	if m.inlElems >= 0 {
		return recvInline[T](m, src, tag)
	}
	return takePayload[T](m, src, tag)
}

// Sendrecv sends sendData to dst and receives a message from src with the
// same tag, without deadlocking.
func Sendrecv[T any](c *Comm, sendData []T, dst, src, tag int) []T {
	Send(c, sendData, dst, tag)
	return Recv[T](c, src, tag)
}

// sendRaw enqueues a payload-carrying message for dst in a pooled
// envelope. The slice header is exploded into the envelope's raw words
// (see message) so the send allocates nothing.
//
//parlint:hotalloc
func sendRaw[T any](c *Comm, payload []T, bytes, dst, tag int) {
	m := getMsg()
	m.inlType = inlineType[T]()
	m.pptr = unsafe.Pointer(unsafe.SliceData(payload))
	m.plen = len(payload)
	m.pcap = cap(payload)
	sendMsg(c, m, bytes, dst, tag)
}

// takePayload reconstructs a payload-carrying message's buffer after
// verifying the element type, and recycles the envelope.
//
//parlint:hotalloc
func takePayload[T any](m *message, src, tag int) []T {
	if want := inlineType[T](); m.inlType != want {
		panic(fmt.Sprintf("vmpi: Recv type mismatch: got []%s from rank %d tag %d, want []%s",
			m.inlType.Elem(), src, tag, want.Elem()))
	}
	var data []T
	if m.pptr != nil {
		data = unsafe.Slice((*T)(m.pptr), m.pcap)[:m.plen]
	}
	debugRecv(data)
	putMsg(m)
	return data
}

// sendMsg is the send core shared by the payload and inline paths: it
// charges injection cost to the sender, stamps the arrival time from the
// network model, enqueues the envelope, and — when the destination is
// waiting for exactly this message — batches its wakeup. The caller has
// filled the envelope's payload or inline fields; src/tag/ctx/timing are
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
		// about to park: batch its wakeup, flushed before this rank can
		// block or finish. Every other delivery (a send to self included —
		// a sender is not waiting) is found by its receive without a wake.
		c.st.pendingWakes = append(c.st.pendingWakes, dstW)
		if len(c.st.pendingWakes) >= wakeBatchMax {
			c.rt.flushWakes(c.st)
		}
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
	// Deliver this rank's batched wakeups before it can park: a rank
	// waiting on one of those messages must be runnable by the time we
	// block, or the all-parked verdict would see a false deadlock.
	c.rt.flushWakes(c.st)
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

// copySlice deep-copies a payload slice into a (possibly pooled) buffer.
func copySlice[T any](data []T) []T {
	debugUse(data)
	out := getSlice[T](len(data))
	copy(out, data)
	return out
}
