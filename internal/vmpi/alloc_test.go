package vmpi

import (
	"runtime/debug"
	"testing"
)

// Steady-state allocation contracts of the messaging hot paths. The
// large-P fast path moved small messages inline into pooled envelopes
// and batched executor wakeups precisely so that the per-message
// allocation count hits zero once the pools are warm; these tests pin
// that down with testing.AllocsPerRun so a regression shows up as a test
// failure, not as a slow drift in the benchmark reports.
//
// GC is disabled around the measured section: a concurrent GC clears
// sync.Pool victims mid-measurement and would charge the refill to the
// measured function (a false positive — steady state is exactly what the
// pools provide between collections).

// allocHarness runs body on rank 0 of a 2-rank world while rank 1 echoes
// with mirrored communication: echo is invoked exactly once per measured
// iteration (AllocsPerRun runs its function iters+1 times, including the
// warmup run).
func allocHarness(t *testing.T, iters int, body func(c *Comm), echo func(c *Comm)) float64 {
	t.Helper()
	if DebugEnabled() {
		t.Skip("vmpidebug ownership tracking allocates by design")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	var allocs float64
	Run(Config{Ranks: 2, Workers: 2}, func(c *Comm) {
		if c.Rank() == 0 {
			// Warm the message/envelope pools before measuring.
			for i := 0; i < 32; i++ {
				body(c)
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs = testing.AllocsPerRun(iters, func() { body(c) })
		} else {
			for i := 0; i < 32+iters+1; i++ {
				echo(c)
			}
		}
	})
	return allocs
}

// TestSendrecvValAllocs pins the inline single-value exchange — the
// merge-exchange negotiation hot path — at zero allocations per op.
func TestSendrecvValAllocs(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		exchange := func(c *Comm) {
			partner := 1 - c.Rank()
			v := SendrecvVal(c, int64(c.Rank()), partner, partner, 7)
			if v != int64(partner) {
				panic("wrong value")
			}
		}
		allocs := allocHarness(t, 100, exchange, exchange)
		if allocs > 0 {
			t.Errorf("SendrecvVal allocated %.2f objects per op, want 0", allocs)
		}
	})
}

// TestInlineSendRecvAllocs pins the inline slice path: Send stays
// allocation-free (payload bytes live in the pooled envelope); Recv's
// only allocation is the exact-size result slice it hands the caller.
func TestInlineSendRecvAllocs(t *testing.T) {
	exchange := func(c *Comm) {
		partner := 1 - c.Rank()
		Send(c, []int64{1, 2, 3}, partner, 7)
		got := Recv[int64](c, partner, 7)
		if len(got) != 3 {
			panic("wrong length")
		}
	}
	allocs := allocHarness(t, 100, exchange, exchange)
	// AllocsPerRun counts process-wide mallocs and both ranks run one
	// exchange per iteration, so the budget is two result slices per op —
	// one per receive — and nothing else.
	if allocs > 2 {
		t.Errorf("inline Send+Recv allocated %.2f objects per op, want <= 2", allocs)
	}
}

// TestPooledSendRecvAllocs pins the payload-carrying path for buffers
// above the inline limit: the payload copy comes from the slice pool and
// the receiver releases it back, so the steady state allocates nothing
// but the pooled envelope round trip (zero objects).
func TestPooledSendRecvAllocs(t *testing.T) {
	payload := make([]int64, 512) // 4 KiB, far above inlineMaxBytes
	exchange := func(c *Comm) {
		partner := 1 - c.Rank()
		Send(c, payload, partner, 7)
		got := Recv[int64](c, partner, 7)
		if len(got) != len(payload) {
			panic("wrong length")
		}
		Release(got)
	}
	allocs := allocHarness(t, 100, exchange, exchange)
	if allocs > 0 {
		t.Errorf("pooled Send+Recv allocated %.2f objects per op, want 0", allocs)
	}
}

// TestTwoKeyExchangeAllocs pins the mailbox itself at zero allocations per
// message when more than one match key is live: both tags are sent before
// either is received, and the second is received first, so each mailbox
// holds two keys at once on every exchange. A mailbox that allocates per
// newly live key pays twice per message here.
func TestTwoKeyExchangeAllocs(t *testing.T) {
	exchange := func(c *Comm) {
		partner := 1 - c.Rank()
		SendVal(c, int64(7), partner, 7)
		SendVal(c, int64(8), partner, 8)
		if RecvVal[int64](c, partner, 8) != 8 || RecvVal[int64](c, partner, 7) != 7 {
			panic("wrong value")
		}
	}
	allocs := allocHarness(t, 100, exchange, exchange)
	if allocs > 0 {
		t.Errorf("two-key exchange allocated %.2f objects per op, want 0", allocs)
	}
}
