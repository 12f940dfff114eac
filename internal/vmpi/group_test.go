package vmpi

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netmodel"
)

// hypercubeGroups replays, for every dimension s of a P-rank hypercube, one
// Group of P/2 pairwise exchanges (rank i and i + 2^s, i's bit s clear),
// each side then computing, with an Allgather between dimensions. It
// reports whether a task ran on a goroutine other than the replaying one.
func hypercubeGroups(h *Replayer, p int) bool {
	var helped atomic.Bool
	replaying := goid()
	for s, d := 0, 1; d < p; s, d = s+1, d<<1 {
		h.Group(p/2, func(k int) {
			if !helped.Load() && goid() != replaying {
				helped.Store(true)
			}
			i := (k&^(d-1))<<1 | k&(d-1)
			j, bytes := i+d, 8+int(fuzzMix(uint64(s), uint64(k), 10)%512)
			a, b := h.Send(i, j, bytes, 300+s), h.Send(j, i, bytes, 300+s)
			h.Recv(j, i, bytes, b)
			h.Recv(i, j, bytes, a)
			h.Compute(i, float64(fuzzMix(uint64(s), uint64(i), 11)%9)*1e-7)
			h.Compute(j, float64(fuzzMix(uint64(s), uint64(j), 11)%9)*1e-7)
		})
		h.Allgather(func(int) int { return 8 })
	}
	return helped.Load()
}

// TestReplayerGroupBitIdentical: a replay whose groups span many tiles
// charges every rank the same clock bits, counts and traced events at
// GOMAXPROCS 1 (the serial loop) as at 2 and 4 with Workers 1, 2 and 8,
// where some of the groups' tiles run on a hostpar worker; and no goroutine
// outlives a run.
func TestReplayerGroupBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const p = 1024
	base := runtime.NumGoroutine()
	run := func(procs, workers int) (*Stats, bool) {
		runtime.GOMAXPROCS(procs)
		helped := false
		st := Run(Config{Ranks: p, Model: netmodel.NewTorus(p), Trace: true, Workers: workers}, func(c *Comm) {
			v := c.Rank()
			Replay(c, "hypercube", &v, func(h *Replayer, _ []*int) { helped = hypercubeGroups(h, p) })
		})
		return st, helped
	}
	want, _ := run(1, 1)
	wantEvs := want.Events.ByRank
	for _, procs := range []int{2, 4} {
		for _, workers := range []int{1, 2, 8} {
			got, helped := run(procs, workers)
			if !helped && !debugEnabled() {
				t.Errorf("GOMAXPROCS %d, %d workers: every task ran on the replaying goroutine", procs, workers)
			}
			gotEvs := got.Events.ByRank
			for r := 0; r < p; r++ {
				for _, c := range []struct {
					what      string
					got, want any
				}{
					{"clock bits", math.Float64bits(got.Clocks[r]), math.Float64bits(want.Clocks[r])},
					{"messages", got.MessagesSent[r], want.MessagesSent[r]},
					{"bytes", got.BytesSent[r], want.BytesSent[r]},
					{"events", gotEvs[r], wantEvs[r]},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Fatalf("GOMAXPROCS %d, %d workers, rank %d: %s differ from the serial replay:\n got %v\nwant %v",
							procs, workers, r, c.what, c.got, c.want)
					}
				}
			}
			if n := goroutinesAfter(base); n > base {
				t.Fatalf("GOMAXPROCS %d, %d workers: %d goroutines after the run, %d before", procs, workers, n, base)
			}
		}
	}
}

// TestReplayerGroupPanics: a task's panic reaches Run — the lowest
// panicking task's, at any GOMAXPROCS, from the second of three tiles — and
// every parked rank is gone by then; a charge of every rank, or a Group,
// inside a group panics.
func TestReplayerGroupPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			want string
			task func(h *Replayer, i int)
		}{
			{"task 70 failed", func(h *Replayer, i int) {
				if i == 70 || i == 128 {
					panic(fmt.Sprintf("task %d failed", i))
				}
				h.Compute(i, 1e-6)
			}},
			{"vmpi: Replayer.Allgather inside a Group", func(h *Replayer, i int) {
				h.Allgather(func(int) int { return 8 })
			}},
			{"vmpi: Replayer.Alltoall inside a Group", func(h *Replayer, i int) {
				h.Alltoall(func(int, int) int { return 8 })
			}},
			{"vmpi: Replayer.Group inside a Group", func(h *Replayer, i int) {
				h.Group(1, func(int) {})
			}},
		} {
			var msg string
			func() {
				defer func() { msg = fmt.Sprint(recover()) }()
				Run(Config{Ranks: 130}, func(c *Comm) {
					v := 0
					Replay(c, "panics", &v, func(h *Replayer, _ []*int) {
						h.Group(130, func(i int) { tc.task(h, i) })
					})
				})
			}()
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("GOMAXPROCS %d: Run panicked with %q, want %q", procs, msg, tc.want)
			}
			// The aborted world's parked ranks unwind before Run
			// re-panics.
			if n := goroutinesAfter(base); n != base {
				t.Fatalf("GOMAXPROCS %d, %q: %d goroutines after the run, %d before", procs, tc.want, n, base)
			}
		}
	}
}

// goroutinesAfter is the goroutine count once it has come down to base,
// or after a second: a rank goroutine that has handed back its slot may
// not have left its last frame when Run returns.
func goroutinesAfter(base int) int {
	n := runtime.NumGoroutine()
	for wait := 0; n > base && wait < 100; wait++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}
