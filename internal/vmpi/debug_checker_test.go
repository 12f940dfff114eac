//go:build vmpidebug

package vmpi

// Tests for the vmpidebug runtime ownership checker (debug_on.go). The
// file is tag-gated with the checker itself, so the deliberate protocol
// violations below are invisible to the default build and to the static
// ownedbuf analyzer, which both see only the tag-free file set.

import (
	"fmt"
	"strings"
	"testing"
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
	if !DebugEnabled() {
		t.Fatal("built with -tags vmpidebug but DebugEnabled() is false")
	}
}

func TestDebugDoubleReleasePanics(t *testing.T) {
	buf := make([]int, 64)
	Release(buf)
	mustPanic(t, "second Release", func() { Release(buf) })
}

func TestDebugUseAfterSendOwnedPanics(t *testing.T) {
	mustPanic(t, "use of a buffer after ownership was transferred", func() {
		Run(Config{Ranks: 2}, func(c *Comm) {
			if c.Rank() == 0 {
				buf := make([]float64, 64)
				SendOwned(c, buf, 1, 1)
				Send(c, buf, 1, 2) // the bug under test: buf was relinquished
			} else {
				Release(Recv[float64](c, 0, 1))
				Release(Recv[float64](c, 0, 2))
			}
		})
	})
}

func TestDebugReleaseAfterTransferPanics(t *testing.T) {
	mustPanic(t, "Release of a buffer after ownership was transferred", func() {
		Run(Config{Ranks: 2}, func(c *Comm) {
			if c.Rank() == 0 {
				buf := make([]float64, 64)
				SendOwned(c, buf, 1, 1)
				Release(buf) // the bug under test: the receiver owns buf now
			} else {
				Release(Recv[float64](c, 0, 1))
			}
		})
	})
}

func TestDebugDoubleTransferPanics(t *testing.T) {
	mustPanic(t, "SendOwned of a buffer after ownership was transferred", func() {
		Run(Config{Ranks: 2}, func(c *Comm) {
			if c.Rank() == 0 {
				buf := make([]float64, 64)
				SendOwned(c, buf, 1, 1)
				SendOwned(c, buf, 1, 2) // the bug under test
			} else {
				Release(Recv[float64](c, 0, 1))
				Release(Recv[float64](c, 0, 2))
			}
		})
	})
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

// The shared read-only state: what Bcast, Allreduce and Allgather return
// above the inline limit is one buffer referenced by up to P ranks.

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
// changes the checksum; the panic names the broadcast that shared the
// buffer. Whoever looks next finds it — a later forward, a Release, or, as
// here, the world's teardown.
func TestDebugWriteAfterSharePanics(t *testing.T) {
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Run(Config{Ranks: 4, Workers: 1}, func(c *Comm) {
			got := Bcast(c, make([]float64, 64), 0)
			if c.Rank() == 3 {
				got[5] = 1 // the bug under test: got is shared and read-only
			}
		})
	}()
	if !strings.Contains(msg, "shared broadcast buffer was modified") ||
		!strings.Contains(msg, "shared at") || !strings.Contains(msg, "debug_checker_test.go") {
		t.Fatalf("want a checksum panic naming the broadcast site in this file, got %q", msg)
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

// TestDebugSendOwnedOfBroadcastPanics: a received broadcast payload is a
// reference, not a buffer the rank could give away. Both call sites are
// named: the broadcast that shared it and the transfer that tried.
func TestDebugSendOwnedOfBroadcastPanics(t *testing.T) {
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Run(Config{Ranks: 2}, func(c *Comm) {
			got := Bcast(c, make([]float64, 64), 0)
			if c.Rank() == 1 {
				SendOwned(c, got, 0, 7) // the bug under test
			} else {
				Release(Recv[float64](c, 1, 7))
			}
		})
	}()
	if !strings.Contains(msg, "SendOwned of a buffer after it was shared by a broadcast at") ||
		strings.Count(msg, "debug_checker_test.go") != 2 {
		t.Fatalf("want a SendOwned panic naming the broadcast and the transfer in this file, got %q", msg)
	}
}

// TestDebugAlltoallOwnedOfBroadcastPanics: the same through the collective
// form of the transfer.
func TestDebugAlltoallOwnedOfBroadcastPanics(t *testing.T) {
	mustPanic(t, "SendOwned of a buffer after it was shared by a broadcast at", func() {
		Run(Config{Ranks: 2}, func(c *Comm) {
			got := Bcast(c, make([]float64, 64), 0)
			parts := [][]float64{make([]float64, 64), make([]float64, 64)}
			if c.Rank() == 1 {
				parts[0] = got // the bug under test
			}
			ReleaseBlocks(AlltoallOwned(c, parts))
		})
	})
}

// TestDebugPoolReleaseOfBroadcastPanics: Release of a shared view does
// nothing because its capacity is never a pool class; reshaping it into one
// to force it into the pool is caught by the backing array.
func TestDebugPoolReleaseOfBroadcastPanics(t *testing.T) {
	mustPanic(t, "Release of a buffer after it was shared by a broadcast at", func() {
		Run(Config{Ranks: 2}, func(c *Comm) {
			got := Bcast(c, make([]float64, 64), 0)
			if c.Rank() == 1 {
				if cap(got) == 64 {
					panic("shared view is pool-shaped")
				}
				Release(got[:64:64]) // the bug under test
			}
		})
	})
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
