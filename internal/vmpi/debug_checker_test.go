//go:build vmpidebug

package vmpi

// Tests for the vmpidebug runtime ownership checker (debug_on.go). The
// file is tag-gated with the checker itself, so the deliberate protocol
// violations below are invisible to the default build and to parlint,
// which both see only the tag-free file set.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	f()
}

func TestDebugEnabled(t *testing.T) {
	if !debugEnabled() {
		t.Fatal("built with -tags vmpidebug but debugEnabled() is false")
	}
}

func TestDebugDoubleReleasePanics(t *testing.T) {
	buf := make([]int, 64)
	Release(buf)
	mustPanic(t, "second Release", func() { Release(buf) })
}

// TestDebugHappyPath: the full protocol — build, transfer, receive, use,
// release, recycle — runs clean under the checker.
func TestDebugHappyPath(t *testing.T) {
	Run(Config{Ranks: 2}, func(c *Comm) {
		buf := getSlice[float64](64)
		for i := range buf {
			buf[i] = float64(c.Rank())
		}
		dst := 1 - c.Rank()
		SendOwned(c, buf, dst, 3)
		got := Recv[float64](c, dst, 3)
		if got[0] != float64(dst) {
			panic("wrong payload")
		}
		Release(got)
		// A released buffer may be reissued by the pool and used freely.
		again := getSlice[float64](64)
		again[0] = 1
		Release(again)
	})
}

// TestDebugPoisonOnRelease: released buffers are filled with 0xDB so stale
// reads surface as corruption, not plausible data.
func TestDebugPoisonOnRelease(t *testing.T) {
	buf := make([]byte, 64)
	buf[0] = 7
	Release(buf)
	if buf[0] != 0xDB {
		t.Fatalf("released buffer not poisoned: got %#x, want 0xdb", buf[0])
	}
}

// TestDebugTransferLeavesPointersIntact: a transferred original whose
// element type holds pointers is pinned but not poisoned, so the collector
// never finds garbage in it; the receiver's copy points where the part did.
func TestDebugTransferLeavesPointersIntact(t *testing.T) {
	Run(Config{Ranks: 2}, func(c *Comm) {
		me, peer := c.Rank(), 1-c.Rank()
		x := me
		parts := [][]*int{{&x}, {&x}}
		sent := parts[peer]
		recv := AlltoallOwned(c, parts)
		runtime.GC()
		if sent[0] != &x || *recv[peer][0] != peer {
			panic("a transferred []*int was poisoned")
		}
	})
}

// TestDebugPanicNamesUserSite: the panic message points at the offending
// caller, not at vmpi internals.
func TestDebugPanicNamesUserSite(t *testing.T) {
	buf := make([]int, 64)
	Release(buf)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "debug_checker_test.go") {
			t.Fatalf("panic should name this test file: %q", msg)
		}
	}()
	Release(buf)
}

// The shared read-only state: what Allreduce and Allgather return is one
// buffer referenced by up to P ranks. The tests below take their view from
// Allgather, the producer the repo's packages call.

// dbgSharedEntries counts the live shared-buffer entries of the checker.
func dbgSharedEntries() int {
	dbgMu.Lock()
	defer dbgMu.Unlock()
	n := 0
	for _, st := range dbgBufs {
		if st.kind == dbgShared {
			n++
		}
	}
	return n
}

// TestDebugWriteAfterSharePanics: a receiver that stores into its view
// changes the checksum; the panic names the Allgather that shared the
// buffer. Whoever looks next finds it — a later forward, a Release, or, as
// here, the world's teardown.
func TestDebugWriteAfterSharePanics(t *testing.T) {
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Run(Config{Ranks: 4, Workers: 1}, func(c *Comm) {
			got := Allgather(c, make([]float64, 16))
			if c.Rank() == 3 {
				got[5] = 1 // the bug under test: got is shared and read-only
			}
		})
	}()
	if !strings.Contains(msg, "shared broadcast buffer was modified") ||
		!strings.Contains(msg, "shared at") || !strings.Contains(msg, "debug_checker_test.go") {
		t.Fatalf("want a checksum panic naming the Allgather site in this file, got %q", msg)
	}
	if n := dbgSharedEntries(); n != 0 {
		t.Fatalf("%d shared entries outlived the panicking world", n)
	}
}

// TestDebugWriteCaughtAtRelease: the same bug, found by the writer's own
// Release before the world ends.
func TestDebugWriteCaughtAtRelease(t *testing.T) {
	mustPanic(t, "shared broadcast buffer was modified", func() {
		Run(Config{Ranks: 2}, func(c *Comm) {
			all := Allreduce(c, make([]int64, 64), Sum[int64])
			if c.Rank() == 1 {
				all[0] = 7 // the bug under test
			}
			Release(all)
		})
	})
}

// TestDebugSendOwnedOfBroadcastPanics: a shared result is a reference, not
// a buffer the rank could give away. Both call sites are named: the
// Allgather that shared it and the transfer that tried.
func TestDebugSendOwnedOfBroadcastPanics(t *testing.T) {
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Run(Config{Ranks: 2}, func(c *Comm) {
			got := Allgather(c, make([]float64, 32))
			if c.Rank() == 1 {
				SendOwned(c, got, 0, 7) // the bug under test
			} else {
				Release(Recv[float64](c, 1, 7))
			}
		})
	}()
	if !strings.Contains(msg, "SendOwned of a buffer after it was shared by a broadcast at") ||
		strings.Count(msg, "debug_checker_test.go") != 2 {
		t.Fatalf("want a SendOwned panic naming the Allgather and the transfer in this file, got %q", msg)
	}
}

// TestDebugAlltoallOwnedOfBroadcastPanics: the same through the collective
// form of the transfer, which the panic names.
func TestDebugAlltoallOwnedOfBroadcastPanics(t *testing.T) {
	mustPanic(t, "AlltoallOwned of a buffer after it was shared by a broadcast at", func() {
		Run(Config{Ranks: 2}, func(c *Comm) {
			got := Allgather(c, make([]float64, 32))
			parts := [][]float64{make([]float64, 64), make([]float64, 64)}
			if c.Rank() == 1 {
				parts[0] = got // the bug under test
			}
			ReleaseBlocks(AlltoallOwned(c, parts))
		})
	})
}

// TestDebugUseAfterAlltoallLinearPanics: a part handed to AlltoallLinear is
// relinquished. One run slot makes the last rank to arrive — the one that
// replays — run on first, before its peer has taken the part.
func TestDebugUseAfterAlltoallLinearPanics(t *testing.T) {
	mustPanic(t, "use of a buffer after ownership was transferred", func() {
		Run(Config{Ranks: 2, Workers: 1}, func(c *Comm) {
			peer := 1 - c.Rank()
			parts := [][]float64{make([]float64, 64), make([]float64, 64)}
			sent := parts[peer]
			got := AlltoallLinear(c, parts, 221)
			Send(c, sent, peer, 1) // the bug under test
			ReleaseBlocks(got)
			Release(Recv[float64](c, peer, 1))
		})
	})
}

// TestDebugPoolReleaseOfBroadcastPanics: Release of a shared view does
// nothing because its capacity is never a pool class; reshaping it into one
// to force it into the pool is caught by the backing array.
func TestDebugPoolReleaseOfBroadcastPanics(t *testing.T) {
	mustPanic(t, "Release of a buffer after it was shared by a broadcast at", func() {
		Run(Config{Ranks: 2}, func(c *Comm) {
			got := Allgather(c, make([]float64, 32))
			if c.Rank() == 1 {
				if cap(got) == 64 {
					panic("shared view is pool-shaped")
				}
				Release(got[:64:64]) // the bug under test
			}
		})
	})
}

// TestDebugDroppedReleasesDieWithTheirWorld: Release drops a class-shaped
// buffer the pool never lent, and the checker's entry for it — which pins
// the buffer — goes when the world ends instead of living as long as the
// process. No float32 draw is out here, so the pool keeps none of them.
func TestDebugDroppedReleasesDieWithTheirWorld(t *testing.T) {
	keys := make([]unsafe.Pointer, 500)
	Run(Config{Ranks: 1}, func(c *Comm) {
		for i := range keys {
			buf := make([]float32, 1024)
			keys[i] = dbgKey(buf)
			Release(buf)
		}
		if last := keys[len(keys)-1]; !dbgHolds(last) {
			panic("the checker holds no entry for a buffer just released")
		}
	})
	held := 0
	for _, k := range keys {
		if dbgHolds(k) {
			held++
		}
	}
	if held != 0 {
		t.Fatalf("the checker holds %d of %d dropped releases after their world ended", held, len(keys))
	}
}

// TestDebugKeptReleasesDieAtWorldEnd: a buffer the pool lent and keeps on
// Release is pinned by its checker entry until getSlice reissues it; when
// the sync.Pool sheds it at a GC instead, only the end of a world retires
// the entry, so neither outlives the process's next world.
func TestDebugKeptReleasesDieAtWorldEnd(t *testing.T) {
	keys := make([]unsafe.Pointer, 100)
	bufs := make([][]float32, len(keys))
	for i := range bufs {
		bufs[i] = Owned[float32](1024)[:1024]
		keys[i] = dbgKey(bufs[i])
	}
	for _, b := range bufs {
		Release(b)
	}
	if !dbgHolds(keys[0]) {
		t.Fatal("the checker holds no entry for a buffer just released")
	}
	bufs = nil
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	Run(Config{Ranks: 1}, func(c *Comm) {})
	held := 0
	for _, k := range keys {
		if dbgHolds(k) {
			held++
		}
	}
	if held != 0 {
		t.Fatalf("the checker holds %d of %d kept releases after a world ended", held, len(keys))
	}
}

// TestDebugSecondReleaseCaughtUntilWorldEnd pins where a kept release's
// entry ends: GCs leave it, so a second Release before any world ends still
// panics, and the end of the last world running retires it — from then on
// a second Release of the buffer is not caught.
func TestDebugSecondReleaseCaughtUntilWorldEnd(t *testing.T) {
	b := Owned[float32](1024)[:1024]
	k := dbgKey(b)
	Release(b)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	mustPanic(t, "second Release", func() { Release(b) })
	Run(Config{Ranks: 1}, func(c *Comm) {})
	if dbgHolds(k) {
		t.Fatal("the checker still holds a kept release after a world ended")
	}
}

// TestDebugSecondReleaseCaughtWhileAnotherWorldEnds: a world that ends
// leaves the releases of a world still running alone, so its rank's second
// Release of a kept buffer still panics — were the entry retired, the
// array would enter the pool twice and two later draws would share it.
func TestDebugSecondReleaseCaughtWhileAnotherWorldEnds(t *testing.T) {
	released, ended := make(chan struct{}), make(chan struct{})
	go func() {
		<-released
		Run(Config{Ranks: 1}, func(c *Comm) {})
		close(ended)
	}()
	var msg string
	Run(Config{Ranks: 1}, func(c *Comm) {
		b := Owned[float32](1024)[:1024]
		Release(b)
		close(released)
		<-ended
		defer func() { msg = fmt.Sprint(recover()) }()
		Release(b)
	})
	if !strings.Contains(msg, "second Release") {
		t.Fatalf("second Release after another world ended: panic %q, want a second-Release panic", msg)
	}
}

// dbgHolds reports whether the checker has an entry for backing array k.
func dbgHolds(k unsafe.Pointer) bool {
	dbgMu.Lock()
	defer dbgMu.Unlock()
	return dbgBufs[k] != nil
}

// TestDebugSharedEntriesDieWithTheirWorld: a shared buffer's entry goes with
// its last holder's Release, and whatever nobody released goes when Run
// returns — the table never carries a world's buffers into the next.
func TestDebugSharedEntriesDieWithTheirWorld(t *testing.T) {
	for _, release := range []bool{true, false} {
		peak := 0
		Run(Config{Ranks: 40, Workers: 1}, func(c *Comm) {
			in := make([]int64, 48)
			sum := Allreduce(c, in, Sum[int64])
			all := Allgather(c, in) // 40 ranks: the tree allgather
			blocks := AllgatherBlocks(c, in)
			if c.Rank() == 39 {
				peak = dbgSharedEntries()
			}
			if len(all) != 40*48 || len(blocks) != 40 || sum[0] != 0 {
				panic("wrong result")
			}
			if release {
				Release(sum)
				Release(all)
			}
		})
		if peak == 0 {
			t.Fatalf("release=%v: no shared entry was ever live; the test exercises nothing", release)
		}
		if n := dbgSharedEntries(); n != 0 {
			t.Fatalf("release=%v: %d shared entries outlived their world", release, n)
		}
	}
}

// TestDebugTransfersDieWithTheirWorld: a world's transferred originals are
// retired when that world ends, not when the last world running does — a
// long world beside it no longer keeps them pinned.
func TestDebugTransfersDieWithTheirWorld(t *testing.T) {
	var key unsafe.Pointer
	done, checked := make(chan struct{}), make(chan struct{})
	held := true
	go func() {
		Run(Config{Ranks: 1}, func(c *Comm) {
			<-done
			held = dbgHolds(key)
		})
		close(checked)
	}()
	Run(Config{Ranks: 2}, func(c *Comm) {
		parts := [][]float64{make([]float64, 64), make([]float64, 64)}
		if c.Rank() == 0 {
			key = dbgKey(parts[1])
		}
		ReleaseBlocks(AlltoallOwned(c, parts))
		if c.Rank() == 0 && !dbgHolds(key) {
			panic("the checker holds no entry for a part just transferred")
		}
	})
	close(done)
	<-checked
	if held {
		t.Fatal("a transferred original outlived its world while another world ran")
	}
}

// TestDebugGroupTasksChargingOneRankPanic: a Replayer.Group whose tasks
// are not disjoint — task 1 charges the rank task 0 charged — panics
// naming both tasks and the rank, even when the schedule would come out
// the same.
func TestDebugGroupTasksChargingOneRankPanic(t *testing.T) {
	mustPanic(t, "vmpi: Group tasks 0 and 1 both charge rank 1", func() {
		Run(Config{Ranks: 4}, func(c *Comm) {
			var st struct{}
			Replay(c, "overlap", &st, func(h *Replayer, _ []*struct{}) {
				h.Group(2, func(i int) {
					h.Compute(i, 1e-6)
					h.Compute(i+1, 1e-6)
				})
			})
		})
	})
}
