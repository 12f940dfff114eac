package vmpi

import (
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// message is a unit of point-to-point communication between world ranks.
// Small flat payloads travel inline in the envelope (see msg.go): inlElems
// is the element count and the data lives in inl, so neither sender nor
// receiver allocates a payload buffer. Envelopes themselves are recycled
// through msgPool; inlElems == -1 marks a payload-carrying message.
type message struct {
	// next links the envelope into its match key's FIFO while it waits in
	// a mailbox (nil otherwise): queueing a message is one pointer store.
	next   *message
	src    int // sender's rank within the communicator's context
	tag    int
	ctx    int64 // communicator context id
	arrive float64
	bytes  int
	// pptr/plen/pcap are the exploded slice header of a payload-carrying
	// message's buffer. Storing the three words directly — instead of
	// boxing the []T into an any field — keeps the payload send path
	// allocation-free (a slice-to-interface conversion heap-allocates the
	// header). pptr is an unsafe.Pointer, so the GC keeps the backing
	// array alive while the message is in flight; Recv[T] reconstructs
	// the slice after checking inlType against its own element type,
	// which is exactly the guarantee a type assertion would give.
	pptr unsafe.Pointer
	plen int
	pcap int
	// inlElems is the inline element count, or -1 when pptr carries the
	// data (0 is a valid empty inline message).
	inlElems int
	// inlType is the interned *T identity of the element type, set on
	// both the inline and the payload path; receives compare it against
	// their own instantiation before touching the bytes.
	inlType reflect.Type
	// inl is the inline payload storage, 8-byte aligned.
	inl [inlineMaxBytes / 8]uint64
}

// mkey is the exact-match key a receive selects on.
type mkey struct {
	src int
	tag int
	ctx int64
}

// hash mixes the three key words with fixed odd multipliers (Fibonacci
// hashing: the table index is taken from the product's high bits). No seed,
// so a key's home slot — and every probe sequence — is the same in every
// run.
func (k mkey) hash() uint64 {
	return uint64(k.src)*0x9E3779B97F4A7C15 + uint64(k.tag)*0xC2B2AE3D27D4EB4F + uint64(k.ctx)*0x165667B19E3779F9
}

// slot is one live match key of a mailbox and its pending messages in
// arrival order, linked through message.next. head == nil marks the slot
// empty: a key whose FIFO drains is removed at once.
type slot struct {
	key        mkey
	head, tail *message
}

// mailboxMinSlots is the table size of a mailbox's first put; the table
// doubles whenever one more key would fill it beyond half.
const mailboxMinSlots = 8

// mailbox holds pending messages for one rank instance, keyed by the receive
// match triple. Receives match on the exact (src, tag, ctx) only, and within
// one key arrival order is the sender's program order, so a per-key FIFO
// pops precisely the message a first-match scan of a single arrival queue
// would select — but take is O(1) in the number of pending messages for
// other keys, where such a scan is quadratic under an all-to-all fan-in.
//
// The keys live in an open-addressed table: a power-of-two slice of slots
// probed linearly from the key's home slot, at most half full. A drained
// key is deleted by backward shift (no tombstones), so keys of retired
// communicator contexts (Split/Dup churn, resize epochs) leave nothing
// behind. Enqueueing links the envelope into its slot; nothing but the
// table's own doubling ever allocates.
type mailbox struct {
	mu    sync.Mutex
	slots []slot
	shift uint // 64 - log2(len(slots)): home slot = hash >> shift
	live  int  // occupied slots
	// waiting/waitKey are the owner's wait record: the key its take found
	// nothing for, set in the critical section of that failed lookup. The
	// put that links this key clears the flag and owes the owner a wake;
	// the deadlock verdict prints what is still set (deadlockDump).
	waiting bool
	waitKey mkey
}

// find returns the index of k's slot, or of the empty slot that ends k's
// probe sequence. The table must exist (a put has grown it); the mailbox
// mutex must be held.
//
//parlint:hotalloc
func (mb *mailbox) find(k mkey) int {
	mask := len(mb.slots) - 1
	for i := int(k.hash() >> mb.shift); ; i = (i + 1) & mask {
		if s := &mb.slots[i]; s.head == nil || s.key == k {
			return i
		}
	}
}

// grow doubles the table (or creates it) and reinserts the live slots.
func (mb *mailbox) grow() {
	old := mb.slots
	n := max(2*len(old), mailboxMinSlots)
	mb.slots = make([]slot, n)
	mb.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if old[i].head != nil {
			mb.slots[mb.find(old[i].key)] = old[i]
		}
	}
}

// put enqueues a message and reports whether the owner is waiting for
// exactly this key — in which case the caller owes it a wake: the
// delivering rank batches the destination into its pending-wake list
// (sendMsg) and flushes the batch to the executor before it can itself
// block. Any other delivery wakes nobody: the owner finds it when it gets
// there.
//
//parlint:hotalloc
func (mb *mailbox) put(m *message) bool {
	k := mkey{src: m.src, tag: m.tag, ctx: m.ctx}
	mb.mu.Lock()
	if 2*(mb.live+1) > len(mb.slots) {
		mb.grow()
	}
	s := &mb.slots[mb.find(k)]
	if s.head == nil {
		s.key = k
		s.head = m
		mb.live++
	} else {
		s.tail.next = m
	}
	s.tail = m
	wake := mb.waiting && mb.waitKey == k
	if wake {
		mb.waiting = false
	}
	mb.mu.Unlock()
	return wake
}

// pop unlinks and returns the oldest pending message for k, or nil when
// there is none. When the key drains, its slot is deleted by backward shift:
// every later slot of the probe run whose home lies at or before the hole
// moves into it, so each live key stays reachable from its home without
// tombstones. The mailbox mutex must be held.
//
//parlint:hotalloc
func (mb *mailbox) pop(k mkey) *message {
	if mb.live == 0 {
		return nil
	}
	i := mb.find(k)
	m := mb.slots[i].head
	if m == nil {
		return nil
	}
	mb.slots[i].head = m.next
	if m.next != nil {
		m.next = nil
		return m
	}
	mask := len(mb.slots) - 1
	for j := (i + 1) & mask; mb.slots[j].head != nil; j = (j + 1) & mask {
		home := int(mb.slots[j].key.hash() >> mb.shift)
		if (j-home)&mask >= (j-i)&mask {
			mb.slots[i] = mb.slots[j]
			i = j
		}
	}
	mb.slots[i] = slot{}
	mb.live--
	return m
}

// take blocks until a message for c matching (src, tag) is available and
// removes the first such message in arrival order. Arrival order from a
// single source is the source's program order, so matching is deterministic.
//
// A rank that finds no match records the key it waits for — under the same
// lock as the failed lookup, so the delivering put cannot miss it — and
// parks itself in the executor; that put's sender re-enqueues it. The
// executor's wake-token protocol covers the window between the unlock and
// the park: a wake that arrives first deposits a token the park consumes.
// If every live rank ends up parked, no rank can ever send again, and the
// executor's verdict panics with those wait records (deadlockDump) instead
// of hanging the process.
//
//parlint:hotalloc
func (mb *mailbox) take(c *Comm, src, tag int) *message {
	k := mkey{src: src, tag: tag, ctx: c.ctx}
	for {
		mb.mu.Lock()
		if m := mb.pop(k); m != nil {
			mb.mu.Unlock()
			return m
		}
		mb.waiting, mb.waitKey = true, k
		mb.mu.Unlock()
		c.rt.exec.Park(c.world(c.rank))
	}
}
