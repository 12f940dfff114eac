package redist

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/vmpi"
)

// Host-memory contracts of the planner (DESIGN.md §6, "The plan around the
// vote"): what a rank holds while it is parked is its routing and its data,
// nothing else. All of them run at Workers: 1, where one rank runs at a
// time and keeps running until it parks, so "while the others wait" is a
// fixed point of the program, not a race.

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// drainPools runs the two collections after which every sync.Pool — the
// plan and scratch pools, the vmpi buffer classes — is empty, so that what
// an earlier test left pooled is not read as held by this one.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// parkedPlanBytes returns the heap bytes each rank holds while parked in
// the feasibility vote of a neighborhood NewPlan over n elements, 1-in-8 of
// them crossing to a ±1 ring neighbor. The last rank to start reads the live
// heap inside its last targets call — every other rank has built its plan
// and waits in the vote by then, which built counts — and the same reading
// from an n = 0 world (stacks aside, everything a rank holds that is not
// the plan) is subtracted.
func parkedPlanBytes(tb testing.TB, p, n int) float64 {
	read := func(occ int) uint64 {
		drainPools()
		var heap uint64
		built := 0
		vmpi.Run(vmpi.Config{Ranks: p, Workers: 1}, func(c *vmpi.Comm) {
			self := c.Rank()
			nbrs := ringNeighbors(self, p)
			if occ == 0 && self == p-1 {
				heap = liveHeap()
			}
			NewPlan(c, occ, ToRank(func(i int) int {
				if i == occ-1 {
					if self == p-1 {
						if built != p-1 {
							tb.Errorf("%d of %d ranks had built their plan when the last one finished", built, p-1)
						}
						heap = liveHeap()
					}
					built++
				}
				if i%8 == 0 {
					return nbrs[i/8%2]
				}
				return self
			}), Options{Neighbors: nbrs}).Free()
		})
		return heap
	}
	empty := read(0)
	return (float64(read(n)) - float64(empty)) / float64(p-1)
}

// TestParkedNeighborhoodPlanFootprint: a rank parked in the vote holds one
// int32 per occurrence (its CSR) plus O(|neighbors|) — not the build
// scratch, which went back to the pool before the vote.
func TestParkedNeighborhoodPlanFootprint(t *testing.T) {
	const p, n = 1024, 1024
	got, limit := parkedPlanBytes(t, p, n), float64(5*n+512)
	t.Logf("%.0f bytes held per parked rank for %d occurrences", got, n)
	if got > limit {
		t.Errorf("a rank parked in the vote holds %.0f bytes for %d occurrences, want at most %.0f", got, n, limit)
	}
}

// TestNeighborhoodExecuteStagesNoOwnBlock: the neighborhood backend copies
// the rank's own block from the input straight into the output, so an
// all-local Execute allocates the output and little else — not a staged
// copy of it as well.
func TestNeighborhoodExecuteStagesNoOwnBlock(t *testing.T) {
	const n = 4096
	var allocated uint64
	vmpi.Run(vmpi.Config{Ranks: 2, Workers: 1}, func(c *vmpi.Comm) {
		self := c.Rank()
		var items []uint64
		if self == 0 {
			items = make([]uint64, n)
		}
		pl := NewPlan(c, len(items), ToRank(func(int) int { return self }), Options{Neighbors: ringNeighbors(self, 2)})
		if !pl.UsedNeighborhood() {
			panic("all-local routing fell back to all-to-all")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := Execute(pl, items)
		runtime.ReadMemStats(&after)
		if self == 0 {
			allocated = after.TotalAlloc - before.TotalAlloc
		}
		if len(out) != len(items) {
			panic("all-local exchange changed the element count")
		}
	})
	t.Logf("Execute allocated %d bytes for an output of %d", allocated, 8*n)
	if limit := uint64(1.25 * 8 * n); allocated >= limit {
		t.Errorf("Execute allocated %d bytes for an output of %d, want under %d", allocated, 8*n, limit)
	}
}

// TestExecuteDropsInputWhileWaiting: a rank waiting in the dense
// exchange, budgeted or not, has staged its blocks in one buffer per group
// of destinations and no longer holds its input. Rank 0 passes Execute an
// 8 MB array nothing else refers to; rank 1 waits for rank 0's token — sent
// just before that Execute, so rank 0 is parked inside it once the token is
// read — and measures the live heap: the staged buffers, not buffers plus
// input.
func TestExecuteDropsInputWhileWaiting(t *testing.T) {
	type fat [32]uint64
	const inputBytes = 8 << 20
	read := func(n int, maxBytes int64) uint64 {
		drainPools()
		var heap uint64
		vmpi.Run(vmpi.Config{Ranks: 2, Workers: 1}, func(c *vmpi.Comm) {
			size := 0
			if c.Rank() == 0 {
				size = n
			}
			pl := NewPlan(c, size, ToRank(func(i int) int { return i % 2 }), Options{MaxBytes: maxBytes})
			if c.Rank() == 0 {
				vmpi.SendVal(c, 1, 1, 99)
			} else {
				vmpi.RecvVal[int](c, 0, 99)
				heap = liveHeap()
			}
			Execute(pl, make([]fat, size))
		})
		return heap
	}
	for _, cse := range []struct {
		name     string
		maxBytes int64
	}{{"dense", -1}, {"budgeted", 1 << 20}} {
		empty := read(0, cse.maxBytes)
		held := float64(read(inputBytes/int(unsafe.Sizeof(fat{})), cse.maxBytes)) - float64(empty)
		t.Logf("%s: %.1f MB live while rank 0 waits", cse.name, held/(1<<20))
		if limit := 1.5 * inputBytes; held >= limit {
			t.Errorf("%s: %.1f MB live while rank 0 waits in Execute over an 8 MB input, want under %.1f MB",
				cse.name, held/(1<<20), limit/(1<<20))
		}
	}
}
