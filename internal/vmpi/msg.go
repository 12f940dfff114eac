package vmpi

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// Small-message inlining.
//
// At paper-scale rank counts most traffic is tiny: a merge-exchange
// negotiation header, a single count, a barrier token. Boxing each of
// those into a freshly allocated envelope plus a heap payload slice made
// the allocator the bottleneck at 4096+ ranks (the virtual machine runs
// P·log P small messages per collective). Payloads of up to inlineMaxBytes
// whose element type is flat — no pointers, so the envelope's array can
// hold the bytes without hiding referents from the GC — are therefore
// copied straight into the message envelope, and envelopes are recycled
// through a sync.Pool once the receive has extracted the data.
//
// Inlining is invisible at the protocol level: message sizes, tags,
// ordering, arrival stamps, and virtual costs are computed exactly as for
// payload-carrying messages, so golden figures are byte-identical. Only
// the host allocation rate changes.

// inlineMaxBytes is the largest payload carried inline in the envelope.
// 32 B holds the redistribution hot set — a merge-exchange header is 24 B,
// counts and splitter probes are 8 — and makes the envelope 128 bytes, one
// allocator size class below what 128 inline bytes cost. Measured over every
// send of the five bench workloads, larger inline-eligible payloads are
// under 1 % of the inline traffic (DESIGN.md, "Mailbox and messages"), while
// the envelopes of payload-carrying messages — all of a dense exchange's —
// carried the unused storage through every queue.
const inlineMaxBytes = 32

// msgPool recycles message envelopes. A zero envelope marks itself as
// payload-carrying; putMsg restores that state before pooling.
var msgPool = sync.Pool{New: func() any { return &message{inlElems: -1} }}

func getMsg() *message { return msgPool.Get().(*message) }

// putMsg returns a consumed envelope to the pool. Callers must have
// extracted everything they need; the payload reference is dropped here so
// pooled envelopes never pin transferred buffers.
func putMsg(m *message) {
	m.pptr = nil
	m.plen, m.pcap = 0, 0
	m.inlElems = -1
	m.inlType = nil
	msgPool.Put(m)
}

// inlineType returns the interned identity of element type T. Pointer
// types are interned by the runtime, so two calls for the same T return
// the identical reflect.Type and the receive-side check is one comparison,
// no allocation.
func inlineType[T any]() reflect.Type {
	return reflect.TypeOf((*T)(nil))
}

// inlineTypes caches the is-flat verdict per element type (*T identity).
var inlineTypes sync.Map

// inlineable reports whether []T payloads may travel inline: the element
// type must be flat (no pointers, slices, maps, strings, channels,
// interfaces — anything whose referents the envelope's raw bytes would
// hide from the garbage collector).
func inlineable[T any]() bool {
	t := inlineType[T]()
	if v, ok := inlineTypes.Load(t); ok {
		return v.(bool)
	}
	ok := flatType(t.Elem())
	inlineTypes.Store(t, ok)
	return ok
}

// flatType reports whether a type contains no pointer-bearing fields.
func flatType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return flatType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !flatType(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// inlineBytes returns the envelope's inline storage as a byte slice of
// length n.
func (m *message) inlineBytes(n int) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&m.inl[0])), n)
}

// sendInline enqueues data inline in a pooled envelope: no payload buffer
// is allocated on either side. Wire behaviour (size, timing, ordering) is
// identical to the payload path.
//
//parlint:hotalloc
func sendInline[T any](c *Comm, data []T, bytes, dst, tag int) {
	debugUse(data)
	m := getMsg()
	m.inlElems = len(data)
	m.inlType = inlineType[T]()
	if bytes > 0 {
		src := unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), bytes)
		copy(m.inlineBytes(bytes), src)
	}
	sendMsg(c, m, bytes, dst, tag)
}

// recvInline extracts an inline payload into a fresh exact-size slice after
// verifying the element type, and recycles the envelope.
func recvInline[T any](m *message, src, tag int) []T {
	if want := inlineType[T](); m.inlType != want {
		panic(fmt.Sprintf("vmpi: Recv type mismatch: got %s from rank %d tag %d, want %s",
			m.inlType.Elem(), src, tag, want.Elem()))
	}
	out := make([]T, m.inlElems)
	if n := m.bytes; n > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n), m.inlineBytes(n))
	}
	putMsg(m)
	return out
}

// SendVal sends a single value to rank dst — wire-identical to
// Send(c, []T{v}, dst, tag) with zero payload allocation on either side
// when T is flat and fits inline. Pair with RecvVal or SendrecvVal; a
// slice Recv of one element also matches.
func SendVal[T any](c *Comm, v T, dst, tag int) {
	bytes := sizeOf[T]()
	if bytes <= inlineMaxBytes && inlineable[T]() {
		m := getMsg()
		m.inlElems = 1
		m.inlType = inlineType[T]()
		copy(m.inlineBytes(bytes), unsafe.Slice((*byte)(unsafe.Pointer(&v)), bytes))
		sendMsg(c, m, bytes, dst, tag)
		return
	}
	Send(c, []T{v}, dst, tag)
}

// RecvVal receives a single-value message from rank src — the counterpart
// of SendVal, also matching a one-element slice Send.
func RecvVal[T any](c *Comm, src, tag int) T {
	m := recvRaw(c, src, tag)
	if m.inlElems >= 0 {
		if want := inlineType[T](); m.inlType != want {
			panic(fmt.Sprintf("vmpi: RecvVal type mismatch: got %s from rank %d tag %d, want %s",
				m.inlType.Elem(), src, tag, want.Elem()))
		}
		if m.inlElems != 1 {
			panic(fmt.Sprintf("vmpi: RecvVal of %d-element message from rank %d tag %d", m.inlElems, src, tag))
		}
		var v T
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&v)), m.bytes), m.inlineBytes(m.bytes))
		putMsg(m)
		return v
	}
	data := takePayload[T](m, src, tag)
	if len(data) != 1 {
		panic(fmt.Sprintf("vmpi: RecvVal of %d-element message from rank %d tag %d", len(data), src, tag))
	}
	v := data[0]
	Release(data)
	return v
}

// SendrecvVal exchanges one value with a partner without deadlocking —
// the zero-allocation form of Sendrecv(c, []T{v}, dst, src, tag)[0], used
// on negotiation hot paths (merge-exchange headers and counts).
func SendrecvVal[T any](c *Comm, v T, dst, src, tag int) T {
	SendVal(c, v, dst, tag)
	return RecvVal[T](c, src, tag)
}
