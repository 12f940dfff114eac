package vmpi

import (
	"runtime"
	"testing"
)

// TestBcastSharesOnePayload is the allocation gate on the fan-out half of
// the tree collectives: an Allgather of one 24-byte header per rank at
// P = 1024 — the merge sort's cleanup check — must cost O(P) payload bytes
// process-wide, not the O(P²) of one private copy per receiving rank
// (1024 × 24 KiB + 1024 × 8 KiB = 32 MiB per call), must take nothing from
// the buffer pool, and must leave the pool's high-water mark where it was.
func TestBcastSharesOnePayload(t *testing.T) {
	if debugEnabled() {
		t.Skip("vmpidebug ownership tracking allocates by design")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	const p = 1024
	type header struct {
		Count    int64
		Min, Max uint64
	}
	// world runs calls allgathers and reports the bytes allocated and the
	// pooled buffers requested process-wide. Workers: 1 keeps the executor's
	// own allocations the same from run to run.
	world := func(calls int) (bytes uint64, gets int64) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		g0 := PoolStatsSnapshot().Gets
		Run(Config{Ranks: p, Workers: 1}, func(c *Comm) {
			for i := 0; i < calls; i++ {
				all := Allgather(c, []header{{Count: int64(c.Rank())}})
				if len(all) != p || all[p-1].Count != p-1 {
					panic("wrong allgather result")
				}
				Release(all)
			}
		})
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, PoolStatsSnapshot().Gets - g0
	}
	world(1) // warm the envelope pool and the executor
	ResetPoolStats()
	before := PoolStatsSnapshot()
	const extra = 8
	b1, g1 := world(1)
	b9, g9 := world(1 + extra)

	// The difference of the two worlds is `extra` allgathers and nothing
	// else: no rank state, no stacks, no executor.
	perCall := (int64(b9) - int64(b1)) / extra
	payload := int64(p * 24)
	// One shared concatenation and one shared length vector, plus what
	// every rank allocates per call whatever the payload costs — three
	// 88-byte span events in a doubling log, their closures, its own
	// one-element input: some 0.8 KB per rank, 32 payloads in all. Private
	// copies would add 1024 payloads, from the heap or (counted below) from
	// the pool.
	if limit := 40 * payload; perCall > limit {
		t.Errorf("one Allgather at P=%d allocated %d B process-wide, want <= %d (P·24 B = %d)",
			p, perCall, limit, payload)
	}
	if perGets := (g9 - g1) / extra; perGets > 2 {
		t.Errorf("one Allgather at P=%d took %d buffers from the pool, want <= 2", p, perGets)
	}
	if hw := PoolStatsSnapshot().HighWaterBytes - before.InUseBytes; hw > 4*payload {
		t.Errorf("pool high water rose by %d B over the world, want <= %d (4 payloads, not %d)",
			hw, 4*payload, p)
	}
	t.Logf("per Allgather at P=%d: %d B allocated (payload %d B), %d pool gets", p, perCall, payload, (g9-g1)/extra)
}

// TestBcastRootIsolation: root's input stays root's own in the reference
// broadcast. Root may scribble over it and release it the moment refBcast
// returns — here into the pool, from which it is at once reissued and
// overwritten — and no other rank's view changes.
func TestBcastRootIsolation(t *testing.T) {
	const n = 64 // 512 B: a pool size class
	for _, p := range []int{2, 5, 33} {
		Run(Config{Ranks: p, Workers: 1}, func(c *Comm) {
			var in []float64
			if c.Rank() == 0 {
				in = getSlice[float64](n)
				for i := range in {
					in[i] = float64(i)
				}
			}
			got := refBcast(c, in, 0)
			if c.Rank() == 0 {
				// Workers: 1 and no receive in between: all of this runs
				// before any other rank looks at its view.
				for i := range in {
					in[i] = -1
				}
				Release(in)
				again := getSlice[float64](n)
				for i := range again {
					again[i] = -2
				}
				Release(again)
			}
			Barrier(c)
			if c.Rank() == 0 {
				return // got is in, released above
			}
			for i, v := range got {
				if v != float64(i) {
					panic("a receiver saw root's writes to its own input")
				}
			}
			Release(got)
		})
	}
}
