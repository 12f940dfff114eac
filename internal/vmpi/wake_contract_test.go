package vmpi_test

import (
	"testing"

	"repro/internal/psort"
	"repro/internal/vmpi"
)

// TestWakesOnlyAwaitedKey pins who gets woken: a delivery owes the
// destination a wake only when it is the message that destination recorded
// a wait for. On one run slot nothing runs between a rank's failed lookup
// and its park, so every wake finds its rank parked and every park is ended
// by exactly one wake: wakeups equal parks, and stay far below the message
// count (one wake per message is what sending a wake with every delivery
// costs). With more slots a wake may land before the park and leave a token
// instead, so only the upper bound holds.
func TestWakesOnlyAwaitedKey(t *testing.T) {
	const ranks = 64
	body := func(c *vmpi.Comm) {
		parts := make([][]int64, ranks)
		for dst := range parts {
			parts[dst] = make([]int64, 8, 16)
		}
		vmpi.ReleaseBlocks(vmpi.AlltoallOwned(c, parts))
		keys := make([]uint64, 32)
		for i := range keys {
			keys[i] = uint64((c.Rank()*131+i*7919)%ranks)<<32 | uint64(i)
		}
		psort.SortMerge(c, keys, func(k uint64) uint64 { return k })
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
