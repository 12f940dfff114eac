package vmpi

import (
	"fmt"
	"testing"
)

// Regression coverage for the mailbox key leak: a (src, tag, ctx) key must
// leave the table when its fifo drains, or every retired communicator
// context (Split/Dup churn, resize epochs) leaves its keys behind for the
// life of the run.

// queueKeys returns the live key count of a rank's mailbox. Safe to call
// from the rank's own goroutine while no peer is sending to it.
func queueKeys(c *Comm) int {
	mb := &c.inst(c.rank).box
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.live
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

// refMailbox is the map-based mailbox the open-addressed table replaced,
// kept as the fuzz oracle: one FIFO of envelopes per exact match key, the
// key deleted when its FIFO drains, and the owner's wait record.
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

// fuzzKey spreads 7 bits over a key universe small enough to collide in
// the table's first sizes: 16 sources, a user tag, the barrier and bcast
// tags, and the world contexts of two epochs.
func fuzzKey(b byte) mkey {
	return mkey{
		src: int(b & 15),
		tag: []int{0, 7, tagBarrier, tagBcast}[b>>4&3],
		ctx: worldCtx(int(b >> 6 & 1)),
	}
}

// checkMailbox compares the table against the reference: the same live
// keys, each reachable from its home slot (find probes from there and stops
// at the first empty slot) and holding the same envelopes in the same
// order, in a table at most half full.
func checkMailbox(t *testing.T, mb *mailbox, ref *refMailbox) {
	t.Helper()
	if mb.live != len(ref.queues) {
		t.Fatalf("table holds %d live keys, reference %d", mb.live, len(ref.queues))
	}
	if 2*mb.live > len(mb.slots) {
		t.Fatalf("%d live keys in %d slots: more than half full", mb.live, len(mb.slots))
	}
	occupied := 0
	for i := range mb.slots {
		if mb.slots[i].head != nil {
			occupied++
		}
	}
	if occupied != mb.live {
		t.Fatalf("%d occupied slots, live count %d", occupied, mb.live)
	}
	for k, q := range ref.queues {
		s := mb.slots[mb.find(k)]
		m := s.head
		for i, want := range q {
			if m != want {
				t.Fatalf("key %+v: envelope %d of %d differs from the reference", k, i, len(q))
			}
			if i == len(q)-1 && s.tail != m {
				t.Fatalf("key %+v: tail is not the last envelope", k)
			}
			m = m.next
		}
		if m != nil {
			t.Fatalf("key %+v: chain runs past the reference's %d envelopes", k, len(q))
		}
	}
	if mb.waiting != ref.waiting || (mb.waiting && mb.waitKey != ref.waitKey) {
		t.Fatalf("wait record (%v, %+v), reference (%v, %+v)", mb.waiting, mb.waitKey, ref.waiting, ref.waitKey)
	}
}

// FuzzMailboxMatchesReference drives the open-addressed mailbox and the
// map-based reference with the same operation string — one byte per
// operation: the top bit selects put or receive, the rest the key — and
// compares them after every step. A receive that finds nothing records the
// wait exactly as take does before it parks; the put that delivers that key
// must be the one, and the only one, that reports a wake. Growth,
// wrap-around probing and backward-shift deletion are what the small,
// colliding key universe exercises.
func FuzzMailboxMatchesReference(f *testing.F) {
	f.Add([]byte{0x01, 0x01, 0x81, 0x81, 0x81})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mb := &mailbox{}
		ref := &refMailbox{queues: map[mkey][]*message{}}
		// 512 operations reach every table size the 128 keys can force; the
		// per-step comparison is linear in the pending envelopes.
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
