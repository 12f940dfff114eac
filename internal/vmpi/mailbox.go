package vmpi

import (
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

// fifo is one match key's pending messages in arrival order. Consumed slots
// are nilled as they are popped; when a fifo drains its map entry is
// deleted, so keys of retired communicator contexts (Split/Dup churn,
// resize epochs) do not accumulate in the mailbox forever.
type fifo struct {
	head int
	msgs []*message
}

// mailbox holds pending messages for one rank instance, keyed by the receive
// match triple. Receives match on the exact (src, tag, ctx) only, and within
// one key arrival order is the sender's program order, so a per-key FIFO
// pops precisely the message a first-match scan of a single arrival queue
// would select — but take is O(1) in the number of pending messages for
// other keys, where such a scan is quadratic under an all-to-all fan-in
// (every wake-up rescans all other senders' pending messages).
type mailbox struct {
	mu     sync.Mutex
	queues map[mkey]*fifo
	// free recycles the last drained fifo cell (and its msgs backing
	// array): most traffic is a ping-pong per match key, so one slot turns
	// the per-message fifo churn into steady-state reuse.
	free *fifo
}

func newMailbox() *mailbox {
	return &mailbox{queues: map[mkey]*fifo{}}
}

// put enqueues a message. Waking the receiver is the sender's
// responsibility: the delivering rank batches the destination into its
// pending-wake list (sendMsg) and flushes the batch to the executor before
// it can itself block, so a send that wakes k ranks costs one executor
// episode, not k.
func (mb *mailbox) put(m *message) {
	k := mkey{src: m.src, tag: m.tag, ctx: m.ctx}
	mb.mu.Lock()
	q := mb.queues[k]
	if q == nil {
		if q = mb.free; q != nil {
			mb.free = nil
		} else {
			q = &fifo{}
		}
		mb.queues[k] = q
	}
	q.msgs = append(q.msgs, m)
	mb.mu.Unlock()
}

// pop removes and returns the head of q, deleting the map entry when the
// fifo drains so the mailbox does not leak one key per retired context.
// Drained cells are parked in the free slot for reuse. The mailbox mutex
// must be held.
func (mb *mailbox) pop(k mkey, q *fifo) *message {
	m := q.msgs[q.head]
	q.msgs[q.head] = nil
	q.head++
	if q.head == len(q.msgs) {
		delete(mb.queues, k)
		q.head = 0
		q.msgs = q.msgs[:0]
		mb.free = q
	}
	return m
}

// take blocks until a message for c matching (src, tag) is available and
// removes the first such message in arrival order. Arrival order from a
// single source is the source's program order, so matching is deterministic.
//
// A rank that finds no match parks itself in the executor and is
// re-enqueued by the delivering send. The recheck loop plus the executor's
// wake-token protocol make the park race-free: a delivery between the queue
// check and the park deposits a token that the park consumes. Before
// parking, the rank records what it waits for in its own state; if every
// live rank ends up parked, no rank can ever send again, and the executor's
// verdict panics with those records (deadlockDump) instead of hanging the
// process.
func (mb *mailbox) take(c *Comm, src, tag int) *message {
	k := mkey{src: src, tag: tag, ctx: c.ctx}
	for {
		mb.mu.Lock()
		if q := mb.queues[k]; q != nil && q.head < len(q.msgs) {
			m := mb.pop(k, q)
			mb.mu.Unlock()
			return m
		}
		mb.mu.Unlock()
		c.st.wait = waitRec{src: src, tag: tag, active: true}
		c.rt.exec.Park(c.world(c.rank))
		c.st.wait = waitRec{}
	}
}
