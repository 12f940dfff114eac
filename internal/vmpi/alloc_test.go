package vmpi

import (
	"runtime"
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

// statsHeldBytes returns the forced-GC live heap a finished P-rank world
// leaves behind through its Stats (and nothing else: the pools are
// collected too).
func statsHeldBytes(p int, body func(c *Comm)) (*Stats, int64) {
	settle := func() uint64 {
		// Twice: the first collection only moves sync.Pool contents to
		// the victim cache.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := settle()
	st := Run(Config{Ranks: p, Workers: 1}, body)
	after := settle()
	runtime.KeepAlive(st)
	return st, int64(after) - int64(before)
}

// TestUntracedRunKeepsNoEvents pins what an untraced run pays for
// observability once it is over: the counter and gauge totals still
// answer, from O(names) aggregates, and no per-rank event list is held —
// at the parent of this contract every barrier, collective, counter and
// gauge left an 88-byte event behind on every rank.
func TestUntracedRunKeepsNoEvents(t *testing.T) {
	if DebugEnabled() {
		t.Skip("vmpidebug ownership tracking holds per-buffer records")
	}
	const p = 4096
	body := func(c *Comm) {
		for i := 0; i < 3; i++ {
			Barrier(c)
			Allgather(c, []int32{int32(c.Rank())})
		}
		c.Counter("work", float64(c.Rank()+1))
		c.Gauge("level", float64(c.Rank()))
	}
	// Warm-up: p ranks parked at once leave p goroutine descriptors on the
	// runtime's free list for good; they must be in both readings.
	Run(Config{Ranks: p, Workers: 1}, body)
	_, empty := statsHeldBytes(p, func(*Comm) {})
	st, busy := statsHeldBytes(p, body)
	perRank := float64(busy-empty) / p
	t.Logf("untraced run holds %.1f B per rank above an empty world", perRank)
	if perRank > 128 {
		t.Errorf("untraced run holds %.0f B per rank above an empty world (%d vs %d B), want <= 128", perRank, busy, empty)
	}
	if st.Events.HasEvents() || len(st.Events.ByRank) != p {
		t.Fatalf("HasEvents = %v with %d rank entries, want an aggregate-only log of %d", st.Events.HasEvents(), len(st.Events.ByRank), p)
	}
	for r, evs := range st.Events.ByRank {
		if evs != nil {
			t.Fatalf("rank %d kept %d events without Config.Trace", r, len(evs))
		}
	}
	if got, want := st.Events.Counter("work"), float64(p*(p+1)/2); got != want {
		t.Errorf("Counter(work) = %v, want %v", got, want)
	}
	if got, ok := st.Events.GaugeMax("level"); !ok || got != p-1 {
		t.Errorf("GaugeMax(level) = %v, %v, want %d, true", got, ok, p-1)
	}
	if _, ok := st.Events.GaugeMax("work"); ok {
		t.Errorf("GaugeMax finds the counter name")
	}
}

// TestEmptyWorldAllocsPerRank pins the host cost of a rank that does
// nothing: mailbox, state, event buffer and admission communicator live
// inside the one rankInstance allocation, the phase map waits for the first
// AddPhase, and the rest is the executor's task and goroutine.
func TestEmptyWorldAllocsPerRank(t *testing.T) {
	if DebugEnabled() || raceEnabled {
		t.Skip("instrumented builds allocate by design")
	}
	const p = 16384
	cfg := Config{Ranks: p, Workers: 1}
	Run(cfg, func(*Comm) {})
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	Run(cfg, func(*Comm) {})
	runtime.ReadMemStats(&b)
	if perRank := float64(b.Mallocs-a.Mallocs) / p; perRank > 6 {
		t.Errorf("an idle rank costs %.2f allocations, want <= 6", perRank)
	}
}
