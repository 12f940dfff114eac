package vmpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netmodel"
)

// Worker-sweep equivalence and edge-case coverage. The executor decides only
// where and when rank host code executes; everything virtual — clocks,
// phases, traffic counters, the traced event log — must be bit-identical at
// any run-slot count, from fully serialized to wider than the rank set.

// mixedWorkload is a nontrivial program touching p2p, collectives,
// communicator splitting, phases, and compute.
func mixedWorkload(c *Comm) {
	me := c.Rank()
	p := c.Size()
	c.Phase("work", func() {
		c.Compute(float64(me+1) * 1e-6)
		// Ring sendrecv.
		got := sendrecv(c, []int{me}, (me+1)%p, (me-1+p)%p, 7)
		if got[0] != (me-1+p)%p {
			panic("ring mismatch")
		}
		// Pairwise alltoall with skewed sizes.
		parts := make([][]float64, p)
		for dst := range parts {
			parts[dst] = make([]float64, (me*7+dst*3)%13)
		}
		recv := Alltoall(c, parts)
		ReleaseBlocks(recv)
		// Collectives.
		sum := AllreduceVal(c, int64(me), Sum[int64])
		c.Counter("sum", float64(sum))
		Barrier(c)
	})
	sub := c.Split(me%2, me)
	if sub != nil {
		v := AllreduceVal(sub, int64(1), Sum[int64])
		c.Gauge("subsize", float64(v))
	}
	c.SetResult(c.Time())
}

// TestEngineVirtualEquivalence checks that the mixed workload's full Stats
// — clocks, phases, traffic, rank results, and the traced event log — are
// identical at every run-slot count, and that the slot bound is honoured.
func TestEngineVirtualEquivalence(t *testing.T) {
	run := func(w int) *Stats {
		return Run(Config{Ranks: 12, Model: netmodel.NewTorus(12), Trace: true, Workers: w}, mixedWorkload)
	}
	ref := run(1)
	if ref.Exec.Spawned != 12 {
		t.Fatalf("executor spawned %d rank goroutines, want 12", ref.Exec.Spawned)
	}
	if ref.Events.MessageCount("") != int(ref.TotalMessages()) {
		t.Fatalf("traced %d sends, counters say %d", ref.Events.MessageCount(""), ref.TotalMessages())
	}
	for _, w := range []int{2, 8} {
		got := run(w)
		if !reflect.DeepEqual(got.Clocks, ref.Clocks) {
			t.Fatalf("workers=%d: clocks differ:\nworkers=1: %v\nworkers=%d: %v", w, ref.Clocks, w, got.Clocks)
		}
		if !reflect.DeepEqual(got.Phases, ref.Phases) {
			t.Fatalf("workers=%d: phases differ", w)
		}
		if !reflect.DeepEqual(got.BytesSent, ref.BytesSent) || !reflect.DeepEqual(got.MessagesSent, ref.MessagesSent) {
			t.Fatalf("workers=%d: traffic counters differ", w)
		}
		if !reflect.DeepEqual(got.Values, ref.Values) {
			t.Fatalf("workers=%d: rank results differ", w)
		}
		if !reflect.DeepEqual(got.Events.ByRank, ref.Events.ByRank) {
			t.Fatalf("workers=%d: event logs differ", w)
		}
		if got.Exec.MaxSlots > w {
			t.Fatalf("workers=%d: MaxSlots %d exceeds the fixed bound", w, got.Exec.MaxSlots)
		}
	}
}

// TestEngineEquivalenceFixedWorkers checks the default slot source (one
// base slot plus host-budget extras) against fully serialized execution.
func TestEngineEquivalenceFixedWorkers(t *testing.T) {
	ref := Run(Config{Ranks: 8, Workers: 1}, mixedWorkload)
	got := Run(Config{Ranks: 8}, mixedWorkload)
	if !reflect.DeepEqual(got.Clocks, ref.Clocks) {
		t.Fatalf("budget-drawn slots: clocks differ from workers=1")
	}
	if ref.Exec.MaxSlots != 1 {
		t.Fatalf("workers=1: MaxSlots %d", ref.Exec.MaxSlots)
	}
}

// TestSelfSendBothEngines checks a rank sending to itself: the delivery
// needs no wake — the sender cannot be parked while it is sending. (The
// name, like the "event" subtests below, dates from the two-engine suite
// and is kept so the recorded test list stays comparable.)
func TestSelfSendBothEngines(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		st := Run(Config{Ranks: 3}, func(c *Comm) {
			me := c.Rank()
			Send(c, []int{me * 10}, me, 5)
			Send(c, []int{me*10 + 1}, me, 5)
			a := Recv[int](c, me, 5)
			b := Recv[int](c, me, 5)
			if a[0] != me*10 || b[0] != me*10+1 {
				panic(fmt.Sprintf("self-send order broken: %v %v", a, b))
			}
			c.SetResult(a[0] + b[0])
		})
		for r, v := range st.Values {
			if v.(int) != r*20+1 {
				t.Fatalf("rank %d result %v", r, v)
			}
		}
	})
}

// TestZeroByteBothEngines checks zero-length payloads flow, match, and
// cost only latency.
func TestZeroByteBothEngines(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		st := Run(Config{Ranks: 4}, func(c *Comm) {
			me := c.Rank()
			p := c.Size()
			// Empty payloads through p2p and a collective.
			got := sendrecv(c, []byte{}, (me+1)%p, (me-1+p)%p, 3)
			if len(got) != 0 {
				panic("zero-byte payload grew")
			}
			empty := Alltoall(c, make([][]byte, p))
			for _, b := range empty {
				if len(b) != 0 {
					panic("zero-byte alltoall grew")
				}
			}
			Barrier(c)
		})
		if st.TotalBytes() != 0 {
			t.Fatalf("zero-byte run sent %d bytes", st.TotalBytes())
		}
		if st.MaxClock() <= 0 {
			t.Fatalf("zero-byte messages should still cost latency")
		}
	})
}

// TestDeadlockDumpBothEngines checks the run panics — rather than hangs —
// when all ranks wait forever, and pins the per-rank blocked-state dump
// byte for byte.
func TestDeadlockDumpBothEngines(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		defer func() {
			const want = "vmpi: deadlock: all ranks blocked in receive or collective:\n" +
				"  rank 0 waiting for (src 1, tag 9)\n" +
				"  rank 1 waiting for (src 2, tag 9)\n" +
				"  rank 2 waiting for (src 0, tag 9)\n"
			if p := recover(); p != want {
				t.Fatalf("deadlock panic:\n%v\nwant:\n%s", p, want)
			}
		}()
		Run(Config{Ranks: 3}, func(c *Comm) {
			// Everyone receives from a rank that never sends.
			Recv[int](c, (c.Rank()+1)%c.Size(), 9)
		})
	})
}

// TestRankPanicPropagates checks the panic contract: a rank's panic value
// is re-raised by Run in the caller's goroutine even while sibling ranks
// are parked waiting on the rank that died.
func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		if p := recover(); p != "rank 1 failed" {
			t.Fatalf("Run re-raised %v, want the rank's panic value", p)
		}
	}()
	Run(Config{Ranks: 4, Workers: 2}, func(c *Comm) {
		if c.Rank() == 1 {
			panic("rank 1 failed")
		}
		Recv[int](c, 1, 9)
	})
}

// TestDeadlockAfterSomeFinishEventEngine checks the executor's
// finish-path verdict: ranks that return normally must not mask a deadlock
// among the rest.
func TestDeadlockAfterSomeFinishEventEngine(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("expected deadlock panic")
		}
		msg := p.(string)
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "rank 0 waiting for") {
			t.Fatalf("unexpected message: %q", msg)
		}
		if strings.Contains(msg, "rank 2 waiting for") {
			t.Fatalf("finished rank listed in dump: %q", msg)
		}
	}()
	Run(Config{Ranks: 3}, func(c *Comm) {
		if c.Rank() == 2 {
			return // finishes; ranks 0 and 1 wait forever
		}
		Recv[int](c, 2, 9)
	})
}

// TestEventEngineLargeP sanity-checks a paper-scale rank count: a 4096-rank
// neighbor exchange completes quickly with bounded resident goroutines.
func TestEventEngineLargeP(t *testing.T) {
	if testing.Short() {
		t.Skip("large-P smoke test")
	}
	const ranks = 4096
	st := Run(Config{Ranks: ranks, Workers: 2}, func(c *Comm) {
		me := c.Rank()
		p := c.Size()
		got := sendrecv(c, []int{me}, (me+1)%p, (me-1+p)%p, 1)
		if got[0] != (me-1+p)%p {
			panic("ring mismatch")
		}
	})
	if st.Exec.Spawned != ranks {
		t.Fatalf("spawned %d, want %d", st.Exec.Spawned, ranks)
	}
	if st.Exec.PeakResident >= ranks {
		t.Fatalf("peak resident %d not bounded below rank count", st.Exec.PeakResident)
	}
}
