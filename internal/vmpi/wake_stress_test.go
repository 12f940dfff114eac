package vmpi

import (
	"reflect"
	"testing"
)

// Stress test for the mailbox's direct wakeups. sendMsg wakes a destination
// the moment put reports it waiting for exactly the delivered key; a wake
// that reaches the executor before the receiver's Park leaves a token the
// Park consumes. A wakeup lost anywhere strands a parked rank: the run
// either reports a false deadlock (all-parked verdict) or hangs. The
// workload below wakes receivers from a long fan-out send loop, from a
// sender about to park in its own receive, and from a sender whose body
// ends right after the send, at slot counts from fully serialized to wider
// than the hot rank set and at the default (one base slot plus extras from
// the shared host budget, so slot hand-offs race budget growth), and the
// virtual clocks must match at every one.
func TestBatchedWakeStress(t *testing.T) {
	const ranks = 96

	workload := func(c *Comm) {
		me, p := c.Rank(), c.Size()

		// Phase 1 — hub scatter/gather: rank 0 issues p-1 sends before its
		// first receive; every peer parks immediately and must be woken by
		// the send that reaches it. Replies are drained in reverse order so
		// the hub parks on the last-woken peers first.
		if me == 0 {
			for d := 1; d < p; d++ {
				SendVal(c, int64(d), d, 1)
			}
			for d := p - 1; d >= 1; d-- {
				if v := RecvVal[int64](c, d, 2); v != int64(2*d) {
					panic("hub reply mismatch")
				}
			}
		} else {
			v := RecvVal[int64](c, 0, 1)
			SendVal(c, 2*v, 0, 2)
		}

		// Phase 2 — power-of-two shifts: every rank sends one message and
		// parks in a receive right after waking its destination.
		sum := int64(me)
		for off := 1; off < p; off *= 2 {
			dst := (me + off) % p
			src := (me - off + p) % p
			SendVal(c, sum, dst, 3)
			sum += RecvVal[int64](c, src, 3)
		}

		// Phase 3 — fire-and-finish: every peer sends its final token and
		// returns while rank 0 is parked waiting for exactly those tokens.
		if me == 0 {
			total := sum
			for d := 1; d < p; d++ {
				total += RecvVal[int64](c, d, 4)
			}
			c.SetResult(total)
		} else {
			SendVal(c, sum, 0, 4)
		}
	}

	var ref *Stats
	for _, w := range []int{1, 2, 8, 0} {
		st := Run(Config{Ranks: ranks, Workers: w}, workload)
		if ref == nil {
			ref = st
		}
		if !reflect.DeepEqual(st.Clocks, ref.Clocks) {
			t.Fatalf("workers=%d: clocks diverge from workers=1", w)
		}
		if !reflect.DeepEqual(st.Values, ref.Values) {
			t.Fatalf("workers=%d: results diverge from workers=1", w)
		}
		if w > 0 && st.Exec.MaxSlots > w {
			t.Fatalf("workers=%d: MaxSlots %d exceeds the fixed bound", w, st.Exec.MaxSlots)
		}
	}
}
