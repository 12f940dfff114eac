package vmpi

import "sync"

// mkey is the exact-match key a receive selects on.
type mkey struct {
	src int
	tag int
	ctx int64
}

// mailbox holds the pending messages of one rank instance in one arrival
// list, linked through message.next. Receives match on the exact (src, tag,
// ctx) only, and within one key arrival order is the sender's program
// order, so the first match in arrival order is the message a per-key FIFO
// would pop. Every collective is a rendezvous (rendezvous.go) and every
// redist exchange a Replay, so no solver path sends point-to-point: the
// traffic left — message-level test references, ping-pong probes — keeps
// the list short, and take scans it from the head. A drained list holds
// nothing, so keys of retired communicator contexts (Split/Dup churn,
// resize epochs) leave nothing behind, and nothing in the mailbox ever
// allocates.
type mailbox struct {
	mu         sync.Mutex
	head, tail *message
	// waiting/waitKey are the owner's wait record: the key its take found
	// nothing for, set in the critical section of that failed lookup. The
	// put that links this key clears the flag and owes the owner a wake;
	// the deadlock verdict prints what is still set (deadlockDump).
	waiting bool
	waitKey mkey
}

// put appends a message to the arrival list and reports whether the owner
// is waiting for exactly this key — in which case the caller owes it a
// wake, which the delivering rank gives at once (sendMsg). Any other
// delivery wakes nobody: the owner finds it when it gets there.
//
//parlint:hotalloc
func (mb *mailbox) put(m *message) bool {
	k := mkey{src: m.src, tag: m.tag, ctx: m.ctx}
	mb.mu.Lock()
	if mb.tail == nil {
		mb.head = m
	} else {
		mb.tail.next = m
	}
	mb.tail = m
	wake := mb.waiting && mb.waitKey == k
	if wake {
		mb.waiting = false
	}
	mb.mu.Unlock()
	return wake
}

// pop unlinks and returns the first pending message for k in arrival order,
// or nil when there is none. The mailbox mutex must be held.
//
//parlint:hotalloc
func (mb *mailbox) pop(k mkey) *message {
	var prev *message
	for m := mb.head; m != nil; prev, m = m, m.next {
		if m.src != k.src || m.tag != k.tag || m.ctx != k.ctx {
			continue
		}
		if prev == nil {
			mb.head = m.next
		} else {
			prev.next = m.next
		}
		if m.next == nil {
			mb.tail = prev
		}
		m.next = nil
		return m
	}
	return nil
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
