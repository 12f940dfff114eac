package vmpi

import (
	"fmt"
	"testing"
)

// Regression coverage for the mailbox key leak: a (src, tag, ctx) key must
// leave the mailbox when its last message is taken, or every retired
// communicator context (Split/Dup churn, resize epochs) leaves its keys
// behind for the life of the run.

// queueKeys returns the number of distinct keys pending in a rank's
// mailbox. Safe to call from the rank's own goroutine while no peer is
// sending to it.
func queueKeys(c *Comm) int {
	mb := &c.inst(c.rank).box
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(pendingByKey(mb))
}

// pendingByKey groups a mailbox's arrival list by match key, each key's
// envelopes in arrival order. The mailbox mutex must be held.
func pendingByKey(mb *mailbox) map[mkey][]*message {
	byKey := map[mkey][]*message{}
	for m := mb.head; m != nil; m = m.next {
		k := mkey{src: m.src, tag: m.tag, ctx: m.ctx}
		byKey[k] = append(byKey[k], m)
	}
	return byKey
}

func TestMailboxPrunesDrainedKeys(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		Run(Config{Ranks: 2}, func(c *Comm) {
			// Churn through communicator contexts: each Dup is a fresh
			// ctx, each round sends on distinct tags.
			const rounds, tags = 8, 16
			for round := 0; round < rounds; round++ {
				d := c.Dup()
				if c.Rank() == 0 {
					for tag := 0; tag < tags; tag++ {
						Send(d, []int{round, tag}, 1, tag)
					}
				} else {
					for tag := 0; tag < tags; tag++ {
						got := Recv[int](d, 0, tag)
						if got[0] != round || got[1] != tag {
							panic(fmt.Sprintf("bad payload %v", got))
						}
					}
				}
				Barrier(c)
			}
			// Every fifo drained, so every key must be gone; without
			// pruning rank 1 would hold rounds*tags dead entries (plus
			// the collectives' keys).
			if n := queueKeys(c); n != 0 {
				panic(fmt.Sprintf("rank %d holds %d dead mailbox keys", c.Rank(), n))
			}
		})
	})
}

func TestMailboxPrunesRetiredEpochKeys(t *testing.T) {
	// A resize retires the old epoch's world context; the survivor's
	// mailbox must not keep the old epoch's collective keys around.
	Run(Config{Ranks: 4}, func(c *Comm) {
		for stage := 0; ; stage++ {
			Barrier(c)
			sizes := []int{2, 1}
			if stage == len(sizes) {
				if n := queueKeys(c); n != 0 {
					panic(fmt.Sprintf("%d dead mailbox keys survive the epochs", n))
				}
				return
			}
			if c = Resize(c, sizes[stage]); c == nil {
				return
			}
		}
	})
}

// refMailbox is the fuzz oracle: one FIFO of envelopes per exact match
// key, the key deleted when its FIFO drains, and the owner's wait record.
type refMailbox struct {
	queues  map[mkey][]*message
	waiting bool
	waitKey mkey
}

func (r *refMailbox) put(m *message) bool {
	k := mkey{src: m.src, tag: m.tag, ctx: m.ctx}
	r.queues[k] = append(r.queues[k], m)
	wake := r.waiting && r.waitKey == k
	if wake {
		r.waiting = false
	}
	return wake
}

func (r *refMailbox) pop(k mkey) *message {
	q := r.queues[k]
	if len(q) == 0 {
		return nil
	}
	if len(q) == 1 {
		delete(r.queues, k)
	} else {
		r.queues[k] = q[1:]
	}
	return q[0]
}

// fuzzKey spreads 7 bits over a small key universe: 16 sources, a user
// tag, the barrier and bcast tags, and the world contexts of two epochs, so
// a source and tag recur under both contexts.
func fuzzKey(b byte) mkey {
	return mkey{
		src: int(b & 15),
		tag: []int{0, 7, tagBarrier, tagBcast}[b>>4&3],
		ctx: worldCtx(int(b >> 6 & 1)),
	}
}

// checkMailbox compares the arrival list against the reference: the same
// pending count, each key's envelopes in the same order, a tail that is the
// list's last envelope, and the same wait record.
func checkMailbox(t *testing.T, mb *mailbox, ref *refMailbox) {
	t.Helper()
	n, last := 0, (*message)(nil)
	for m := mb.head; m != nil; m = m.next {
		n, last = n+1, m
	}
	want := 0
	for _, q := range ref.queues {
		want += len(q)
	}
	if n != want {
		t.Fatalf("mailbox holds %d envelopes, reference %d", n, want)
	}
	if mb.tail != last {
		t.Fatalf("tail is not the last envelope of the arrival list")
	}
	byKey := pendingByKey(mb)
	if len(byKey) != len(ref.queues) {
		t.Fatalf("mailbox holds %d keys, reference %d", len(byKey), len(ref.queues))
	}
	for k, q := range ref.queues {
		got := byKey[k]
		if len(got) != len(q) {
			t.Fatalf("key %+v: %d envelopes, reference %d", k, len(got), len(q))
		}
		for i := range q {
			if got[i] != q[i] {
				t.Fatalf("key %+v: envelope %d of %d differs from the reference", k, i, len(q))
			}
		}
	}
	if mb.waiting != ref.waiting || (mb.waiting && mb.waitKey != ref.waitKey) {
		t.Fatalf("wait record (%v, %+v), reference (%v, %+v)", mb.waiting, mb.waitKey, ref.waiting, ref.waitKey)
	}
}

// FuzzMailboxMatchesReference drives the arrival-list mailbox and the
// per-key reference with the same operation string — one byte per
// operation: the top bit selects put or receive, the rest the key — and
// compares them after every step. A receive that finds nothing records the
// wait exactly as take does before it parks; the put that delivers that key
// must be the one, and the only one, that reports a wake. Unlinking from
// the head, the middle and the tail of the list, with the same source and
// tag pending under both contexts, is what the small key universe
// exercises.
func FuzzMailboxMatchesReference(f *testing.F) {
	f.Add([]byte{0x01, 0x01, 0x81, 0x81, 0x81})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mb := &mailbox{}
		ref := &refMailbox{queues: map[mkey][]*message{}}
		// The per-step comparison is linear in the pending envelopes, so
		// 512 operations bound a step's cost.
		for _, op := range ops[:min(len(ops), 512)] {
			k := fuzzKey(op)
			if op&0x80 == 0 {
				m := &message{src: k.src, tag: k.tag, ctx: k.ctx}
				if got, want := mb.put(m), ref.put(m); got != want {
					t.Fatalf("put %+v reports wake %v, reference %v", k, got, want)
				}
			} else {
				got, want := mb.pop(k), ref.pop(k)
				if got != want {
					t.Fatalf("pop %+v returns a different envelope than the reference", k)
				}
				if got == nil {
					mb.waiting, mb.waitKey = true, k
					ref.waiting, ref.waitKey = true, k
				} else if got.next != nil {
					t.Fatalf("pop %+v returns an envelope still linked", k)
				}
			}
			checkMailbox(t, mb, ref)
		}
	})
}
