package vmpi_test

import (
	"testing"

	"repro/internal/vmpi"
)

// TestWakesOnlyAwaitedKey pins who gets woken: a delivery owes the
// destination a wake only when it is the message that destination recorded
// a wait for. On one run slot nothing runs between a rank's failed lookup
// and its park, so every wake finds its rank parked and every park is ended
// by exactly one wake: wakeups equal parks, and stay far below the message
// count (one wake per message is what sending a wake with every delivery
// costs). With more slots a wake may land before the park and leave a token
// instead, so only the upper bound holds. The traffic is mailbox traffic:
// rings of value and payload exchanges at every power-of-two distance,
// behind a rendezvous all-to-all.
func TestWakesOnlyAwaitedKey(t *testing.T) {
	const ranks = 64
	body := func(c *vmpi.Comm) {
		parts := make([][]int64, ranks)
		for dst := range parts {
			parts[dst] = make([]int64, 8, 16)
		}
		vmpi.ReleaseBlocks(vmpi.AlltoallOwned(c, parts))
		me := c.Rank()
		v := uint64(me)
		block := make([]uint64, 16)
		for round := 0; round < 3; round++ {
			for k := 1; k < ranks; k <<= 1 {
				dst, src := (me+k)%ranks, (me-k+ranks)%ranks
				if round == 1 {
					vmpi.Send(c, block, dst, 7)
					got := vmpi.Recv[uint64](c, src, 7)
					v += got[0]
					vmpi.Release(got)
				} else {
					vmpi.SendVal(c, v, dst, 7)
					v += vmpi.RecvVal[uint64](c, src, 7)
				}
			}
		}
		c.SetResult(v)
	}
	for _, workers := range []int{1, 4} {
		st := vmpi.Run(vmpi.Config{Ranks: ranks, Workers: workers}, body)
		parks, wakes, msgs := st.Exec.Parks, st.Exec.Wakeups, st.TotalMessages()
		t.Logf("workers %d: %d messages, %d parks, %d wakeups", workers, msgs, parks, wakes)
		if workers == 1 && (wakes != parks || wakes >= msgs) {
			t.Errorf("workers 1: %d wakeups for %d parks and %d messages, want wakeups == parks < messages", wakes, parks, msgs)
		}
		if wakes > msgs {
			t.Errorf("workers %d: %d wakeups exceed %d messages", workers, wakes, msgs)
		}
	}
}
