//go:build vmpidebug

package vmpi

// Parity of the vmpidebug checker with the static ownership rule it
// replaces: one case for each violation that rule's fixtures flagged, named
// after the fixture function, run in a real world. A case either panics
// with a message naming the transfer, release or share site — the line the
// message points at must call what the case names — or, for a load after a
// transfer, reads the 0xDB poison. The negative (ok*) cases run clean.
//
// The buffers the helper cases release twice are class-shaped (64
// elements) where the fixture's were 4: Release ignores a capacity outside
// the pool's classes, so only a class-shaped buffer can be released twice
// into the pool. A package
// boundary means nothing at run time, so the fixture's cross-package
// helpers are the in-package ones below.
//
// Two flagged shapes need no runtime check:
//   - `_ = len(buf)` after a transfer reads the caller's slice header, no
//     memory the receiver holds;
//   - `append` onto a view whose capacity equals its length copies it, so
//     nothing shared changes (one with a spare slot is caught: appendOnto).

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const poison64 = 0xDBDBDBDBDBDBDBDB

type parityCase struct {
	name  string
	ranks int // 2 when zero
	// want is the phrase of the panic before " at file:line"; site the call
	// that line must make.
	want, site string
	// poison: rank 0 loads after a transfer and hands the bits it read to
	// SetResult.
	poison bool
	// harmless: no runtime check is needed, and why; the case runs clean.
	harmless string
	run      func(c *Comm)
}

const (
	usedAfterTransfer     = "use of a buffer after ownership was transferred"
	storedAfterTransfer   = "transferred buffer was modified (transferred"
	storedIntoShared      = "shared broadcast buffer was modified (shared"
	releasedTwice         = "second Release of a buffer (already released"
	releasedAfterTransfer = "Release of a buffer after ownership was transferred"
	transferredTwice      = "SendOwned of a buffer after ownership was transferred"
	transferredShared     = "SendOwned of a buffer after it was shared by a broadcast"
)

// The fixture's helpers: sendHelper relinquishes its argument, dropHelper
// releases it, chainHelper forwards to sendHelper, peek only reads, and
// gatherCounts returns a shared view through a local.
func sendHelper(c *Comm, b []float64)  { SendOwned(c, b, 1, 0) }
func dropHelper(b []float64)           { Release(b) }
func chainHelper(c *Comm, b []float64) { sendHelper(c, b) }
func peek(b []float64) float64         { return b[0] }

func gatherCounts(c *Comm, n int64) []int64 {
	all := Allgather(c, []int64{n})
	return all
}

func wrapped(c *Comm, n int64) []int64 { return gatherCounts(c, n) }

// sendOne runs f on rank 0 and has rank 1 take and release the float64
// buffers rank 0 sends it on tags.
func sendOne(c *Comm, f func(), tags ...int) {
	if c.Rank() == 0 {
		f()
		return
	}
	for _, tag := range tags {
		Release(Recv[float64](c, 0, tag))
	}
}

// onRank0 runs f on rank 0 only.
func onRank0(c *Comm, f func()) {
	if c.Rank() == 0 {
		f()
	}
}

func ones(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

var parityCases = []parityCase{
	// Fixture package a: transfers and releases.
	{name: "useAfterSendOwned/store", want: storedAfterTransfer, site: "SendOwned(", run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 32)
			buf[0] = 1
			SendOwned(c, buf, 1, 7)
			buf[1] = 2
		}, 7)
	}},
	{name: "useAfterSendOwned/load", poison: true, run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 32)
			SendOwned(c, buf, 1, 7)
			c.SetResult(math.Float64bits(buf[0]))
		}, 7)
	}},
	{name: "useAfterSendOwned/send", want: usedAfterTransfer, site: "SendOwned(", run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 32)
			SendOwned(c, buf, 1, 7)
			Send(c, buf, 1, 8)
		}, 7, 8)
	}},
	{name: "useAfterSendOwned/append", poison: true, run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 32)
			SendOwned(c, buf, 1, 7)
			buf = append(buf, 3)
			c.SetResult(math.Float64bits(buf[0]))
		}, 7)
	}},
	{name: "aliasTracking", poison: true, run: func(c *Comm) {
		onRank0(c, func() {
			buf := make([]int, 32)
			alias := buf
			SendOwned(c, alias, 1, 7)
			c.SetResult(uint64(buf[0]))
		})
		if c.Rank() == 1 {
			Release(Recv[int](c, 0, 7))
		}
	}},
	{name: "subsliceAlias", poison: true, run: func(c *Comm) {
		onRank0(c, func() {
			buf := make([]int, 32)
			head := buf[:8]
			SendOwned(c, buf, 1, 7)
			c.SetResult(uint64(head[0]))
		})
		if c.Rank() == 1 {
			Release(Recv[int](c, 0, 7))
		}
	}},
	{name: "alltoallOwned", poison: true, run: func(c *Comm) {
		parts := make([][]float64, c.Size())
		for d := range parts {
			parts[d] = append(Owned[float64](4), 1, 2, 3, 4)
		}
		recv := AlltoallOwned(c, parts)
		onRank0(c, func() { c.SetResult(math.Float64bits(parts[1][0])) })
		ReleaseBlocks(recv)
	}},
	{name: "doubleRelease", want: releasedTwice, site: "Release(got)", run: func(c *Comm) {
		if c.Rank() == 1 {
			Send(c, make([]float64, 64), 0, 7)
			return
		}
		got := Recv[float64](c, 1, 7)
		Release(got)
		Release(got)
	}},
	{name: "releaseAfterTransfer", want: releasedAfterTransfer, site: "SendOwned(", run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 32)
			SendOwned(c, buf, 1, 7)
			Release(buf)
		}, 7)
	}},
	{name: "doubleTransfer", ranks: 3, want: transferredTwice, site: "SendOwned(", run: func(c *Comm) {
		switch c.Rank() {
		case 0:
			buf := make([]float64, 32)
			SendOwned(c, buf, 1, 7)
			SendOwned(c, buf, 2, 7)
		default:
			Release(Recv[float64](c, 0, 7))
		}
	}},
	{name: "transferUsedInsideReturningBranch", poison: true, run: func(c *Comm) {
		buf := make([]float64, 32)
		if send := c.Rank() == 0; send {
			SendOwned(c, buf, 1, 7)
			c.SetResult(math.Float64bits(buf[0]))
			return
		}
		Release(Recv[float64](c, 0, 7))
	}},
	{name: "transferInFallthroughBranch", want: storedAfterTransfer, site: "SendOwned(", run: func(c *Comm) {
		buf := make([]float64, 32)
		send := c.Rank() == 0
		if send {
			SendOwned(c, buf, 1, 7)
		}
		buf[0] = 1
		if !send {
			Release(Recv[float64](c, 0, 7))
		}
	}},
	{name: "a/okSendThenReuse", run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 32)
			Send(c, buf, 1, 7)
			buf[0] = 2
			Send(c, buf, 1, 8)
		}, 7, 8)
	}},
	{name: "a/okRebind", run: func(c *Comm) {
		if c.Rank() == 1 {
			Release(Recv[float64](c, 0, 7))
			Send(c, make([]float64, 32), 0, 9)
			return
		}
		buf := make([]float64, 32)
		SendOwned(c, buf, 1, 7)
		buf = Recv[float64](c, 1, 9)
		_ = buf[0]
		Release(buf)
	}},
	{name: "a/okReleaseOnce", run: func(c *Comm) {
		if c.Rank() == 1 {
			Send(c, make([]float64, 64), 0, 7)
			return
		}
		got := Recv[float64](c, 1, 7)
		sum := 0.0
		for _, v := range got {
			sum += v
		}
		Release(got)
		_ = sum
	}},
	{name: "a/okLoopRebuild", run: func(c *Comm) {
		for dst := 0; dst < c.Size(); dst++ {
			buf := make([]float64, 32)
			buf[0] = float64(dst)
			SendOwned(c, buf, dst, 7)
		}
		for src := 0; src < c.Size(); src++ {
			Release(Recv[float64](c, src, 7))
		}
	}},
	{name: "a/okTransferInReturningBranch", run: func(c *Comm) {
		okTransfer := func(send bool) []float64 {
			buf := make([]float64, 32)
			if send {
				SendOwned(c, buf, 1, 7)
				return nil
			}
			buf[0] = 1
			return buf
		}
		okTransfer(c.Rank() == 0)
		if c.Rank() == 1 {
			Release(Recv[float64](c, 0, 7))
		}
	}},

	// Fixture package a: the interprocedural helpers.
	{name: "useAfterHelperSend", poison: true, run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 4)
			sendHelper(c, buf)
			c.SetResult(math.Float64bits(buf[0]))
		}, 0)
	}},
	{name: "doubleReleaseViaHelper", ranks: 1, want: releasedTwice, site: "Release(b)", run: func(c *Comm) {
		buf := make([]float64, 64)
		dropHelper(buf)
		Release(buf)
	}},
	{name: "useAfterChain", want: storedAfterTransfer, site: "SendOwned(", run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 4)
			chainHelper(c, buf)
			buf[0] = 1
		}, 0)
	}},
	{name: "useAfterCrossPackageSend", harmless: "len reads the caller's slice header", run: func(c *Comm) {
		sendOne(c, func() {
			buf := make([]float64, 4)
			sendHelper(c, buf)
			if len(buf) != 4 {
				panic("length changed")
			}
		}, 0)
	}},
	{name: "releaseAfterCrossPackageDrop", ranks: 1, want: releasedTwice, site: "Release(b)", run: func(c *Comm) {
		buf := make([]float64, 64)
		dropHelper(buf)
		Release(buf)
	}},
	{name: "okPeekThenUse", run: func(c *Comm) {
		buf := make([]float64, 64)
		_ = peek(buf)
		buf[0] = 2
		Release(buf)
	}},
	{name: "okHelperTerm", run: func(c *Comm) {
		okTerm := func(sender bool) []float64 {
			buf := make([]float64, 4)
			if sender {
				sendHelper(c, buf)
				return nil
			}
			return buf
		}
		okTerm(c.Rank() == 0)
		if c.Rank() == 1 {
			Release(Recv[float64](c, 0, 0))
		}
	}},

	// Fixture package sharedro: stores into and transfers of shared views.
	{name: "storeIntoAllreduce", want: storedIntoShared, site: "Allreduce(", run: func(c *Comm) {
		got := Allreduce(c, []float64{2, 2}, Sum[float64])
		onRank0(c, func() { got[0] = 1 })
	}},
	{name: "opAssignAndIncDec/opAssign", want: storedIntoShared, site: "Allreduce(", run: func(c *Comm) {
		tot := Allreduce(c, ones(3), Sum[int64])
		onRank0(c, func() { tot[1] += 2 })
	}},
	{name: "opAssignAndIncDec/incDec", want: storedIntoShared, site: "Allreduce(", run: func(c *Comm) {
		tot := Allreduce(c, ones(3), Sum[int64])
		onRank0(c, func() { tot[2]++ })
	}},
	{name: "fieldStore", ranks: 4, want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		type header struct {
			Count    int64
			Min, Max uint64
		}
		all := Allgather(c, []header{{Count: 5}})
		onRank0(c, func() { all[3].Count = 0 })
	}},
	{name: "copyInto/whole", want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		all := Allgather(c, ones(2))
		onRank0(c, func() { copy(all, make([]int64, 2)) })
	}},
	{name: "copyInto/tail", want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		all := Allgather(c, ones(2))
		onRank0(c, func() { copy(all[2:], make([]int64, 2)) })
	}},
	{name: "appendOnto", want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		all := Allgather(c, ones(16)) // 32 elements, a class size: one spare slot
		onRank0(c, func() { _ = append(all, 7) })
	}},
	{name: "clearOf", want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		all := Allgather(c, ones(2))
		onRank0(c, func() { clear(all) })
	}},
	{name: "relinquish", want: transferredShared, site: "Allgather(", run: func(c *Comm) {
		all := Allgather(c, ones(2))
		if c.Rank() == 0 {
			SendOwned(c, all, 1, 0)
		} else {
			Release(Recv[int64](c, 0, 0))
		}
	}},
	{name: "relinquishViaHelper", want: transferredShared, site: "Allreduce(", run: func(c *Comm) {
		got := Allreduce(c, []float64{1, 2}, Sum[float64])
		sendOne(c, func() { sendHelper(c, got) }, 0)
	}},
	{name: "storeThroughAlias", want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		all := Allgather(c, ones(4))
		tail := all[4:]
		onRank0(c, func() { tail[0] = 9 })
	}},
	{name: "storeIntoResliced", want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		head := Allgather(c, ones(2))[:2]
		onRank0(c, func() { head[0] = 9 })
	}},
	{name: "storeViaHelper", want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		counts := wrapped(c, 3)
		onRank0(c, func() { counts[0] = 0 })
	}},
	{name: "storeViaCrossPackageHelper", want: storedIntoShared, site: "Allgather(", run: func(c *Comm) {
		counts := gatherCounts(c, 3)
		onRank0(c, func() { counts[0] = 0 })
	}},
	{name: "sharedro/okReadAndRelease", run: func(c *Comm) {
		all := Allgather(c, ones(2))
		t := all[0]
		for _, v := range all[1:] {
			t += v
		}
		mine := make([]int64, len(all))
		copy(mine, all)
		mine[0] = t
		if c.Rank() == 0 {
			Send(c, all, 1, 0)
		} else {
			Release(Recv[int64](c, 0, 0))
		}
		Release(all)
	}},
	{name: "sharedro/okRebind", run: func(c *Comm) {
		all := Allgather(c, ones(2))
		all = append([]int64(nil), all...)
		all[0] = 1
	}},
	{name: "sharedro/okPrivateResults", run: func(c *Comm) {
		counts := ones(2)
		blocks := AllgatherBlocks(c, counts)
		blocks[0][0] = 7
		counts[0] = AllreduceVal(c, int64(1), Sum[int64])
	}},
	{name: "sharedro/okOwnInput", run: func(c *Comm) {
		table := make([]float64, 32)
		got := Allgather(c, table)
		table[0] = got[0] + 1
		Release(table)
	}},
}

// TestDebugParityWithStaticRule runs every case of the table in a world of
// its own.
func TestDebugParityWithStaticRule(t *testing.T) {
	flagged := 0
	for _, tc := range parityCases {
		if tc.want != "" || tc.poison || tc.harmless != "" {
			flagged++
		}
		t.Run(tc.name, func(t *testing.T) {
			ranks := tc.ranks
			if ranks == 0 {
				ranks = 2
			}
			var st *Stats
			msg := func() (msg string) {
				defer func() {
					if p := recover(); p != nil {
						msg = fmt.Sprint(p)
					}
				}()
				st = Run(Config{Ranks: ranks}, tc.run)
				return ""
			}()
			switch {
			case tc.want != "":
				checkNamesSite(t, msg, tc.want, tc.site)
			case msg != "":
				t.Fatalf("unexpected panic: %s", msg)
			case tc.poison:
				if v, _ := st.Values[0].(uint64); v != poison64 {
					t.Fatalf("a load after the transfer read %#x, want the poison %#x", v, uint64(poison64))
				}
			}
		})
	}
	if flagged != 31 {
		t.Fatalf("%d flagged cases, want one per violation of the static rule's fixtures (31)", flagged)
	}
}

var siteRe = regexp.MustCompile(` at (\S+):(\d+)`)

// checkNamesSite checks that msg holds want followed by " at file:line", and
// that the named line makes the call site.
func checkNamesSite(t *testing.T, msg, want, site string) {
	t.Helper()
	i := strings.Index(msg, want)
	if i < 0 {
		t.Fatalf("panic %q, want one containing %q", msg, want)
	}
	m := siteRe.FindStringSubmatch(msg[i+len(want):])
	if m == nil || !strings.HasPrefix(msg[i+len(want):], m[0]) {
		t.Fatalf("panic %q names no site after %q", msg, want)
	}
	src, err := os.ReadFile(m[1])
	if err != nil {
		t.Fatal(err)
	}
	n, _ := strconv.Atoi(m[2])
	if lines := strings.Split(string(src), "\n"); n < 1 || n > len(lines) || !strings.Contains(lines[n-1], site) {
		t.Fatalf("panic %q names %s:%d, which does not call %s", msg, m[1], n, site)
	}
}
