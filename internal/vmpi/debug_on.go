//go:build vmpidebug

package vmpi

// Runtime ownership checker, the dynamic backstop behind the static
// ownedbuf analyzer (cmd/parlint). Built with -tags vmpidebug, the
// messaging layer tracks the backing array of every buffer that changes
// hands through the ownership protocol (see pool.go) and panics, naming
// the offending call sites, on:
//
//   - sending a buffer (owned or copied) after its ownership was
//     transferred by SendOwned / AlltoallOwned or after it was released;
//   - transferring a buffer twice, or transferring a released buffer;
//   - releasing a buffer twice, or releasing a transferred buffer;
//   - relinquishing (SendOwned / AlltoallOwned) or pool-releasing a shared
//     broadcast buffer, or modifying one: every shared buffer carries a
//     holder count and a content checksum taken when its root shared it,
//     re-verified at each forward, at each holder's Release, and when the
//     world that made it ends.
//
// Released buffers are additionally poisoned with 0xDB bytes so stale
// reads surface as corrupted data instead of silently reading recycled
// memory. Tracking is keyed by the backing array's address; the tracked
// state keeps the buffer reachable, so an address is never reused while an
// entry for it exists (no false positives from GC address reuse).
//
// Direct element reads and writes cannot be intercepted in Go, so plain
// use-after-transfer is caught when the buffer re-enters the messaging
// layer (or, for released buffers, by the poison); the static analyzer
// covers the rest at compile time.

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"unsafe"
)

// DebugEnabled reports whether the vmpidebug runtime ownership checker is
// compiled in.
func DebugEnabled() bool { return true }

const (
	dbgTransferred = iota
	dbgReleased
	dbgShared
)

// dbgState records why a backing array is currently off-limits. pin keeps
// the array reachable so its address cannot be recycled for an unrelated
// allocation while the entry exists.
type dbgState struct {
	kind int
	site string
	pin  any
	// Shared broadcast buffers only: the world that shared it, the ranks
	// (and, while it fans out, the root's send loop) currently holding a
	// reference, and the payload bytes (which pin the array) with their
	// checksum as shared.
	rt      *Runtime
	holders int
	data    []byte
	sum     uint64
}

var (
	dbgMu   sync.Mutex
	dbgBufs = map[unsafe.Pointer]*dbgState{}
)

func (s *dbgState) verb() string {
	switch s.kind {
	case dbgTransferred:
		return "ownership was transferred"
	case dbgShared:
		return "it was shared by a broadcast"
	}
	return "it was released"
}

// verify panics if a shared buffer no longer holds the bytes it was shared
// with, naming the broadcast and where — the calling user site unless when
// says otherwise — the damage was found.
func (s *dbgState) verify(when string) {
	if dbgSum(s.data) == s.sum {
		return
	}
	if when == "" {
		when = dbgCallSite()
	}
	panic(fmt.Sprintf("vmpi: shared broadcast buffer was modified (shared at %s; detected at %s)",
		s.site, when))
}

// dbgSum is FNV-1a taken a 64-bit word at a time (bytewise over the tail):
// a checksum cheap enough to retake at every hop of every broadcast.
func dbgSum(b []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// dbgCallSite returns the first caller frame outside the vmpi
// implementation files, i.e. the user call that entered the messaging
// layer (vmpi's own tests live in *_test.go files and are reported too).
func dbgCallSite() string {
	pc := make([]uintptr, 32)
	n := runtime.Callers(2, pc)
	frames := runtime.CallersFrames(pc[:n])
	for {
		f, more := frames.Next()
		switch filepath.Base(f.File) {
		case "debug_on.go", "p2p.go", "pool.go", "collectives.go":
		default:
			return fmt.Sprintf("%s:%d", f.File, f.Line)
		}
		if !more {
			return "(unknown)"
		}
	}
}

func dbgKey[T any](s []T) unsafe.Pointer {
	if cap(s) == 0 {
		return nil
	}
	return unsafe.Pointer(unsafe.SliceData(s[:cap(s)]))
}

// debugTransfer records a SendOwned/AlltoallOwned ownership transfer.
func debugTransfer[T any](s []T) {
	k := dbgKey(s)
	if k == nil {
		return
	}
	dbgMu.Lock()
	defer dbgMu.Unlock()
	if st := dbgBufs[k]; st != nil {
		panic(fmt.Sprintf("vmpi: SendOwned of a buffer after %s at %s (new transfer at %s)",
			st.verb(), st.site, dbgCallSite()))
	}
	dbgBufs[k] = &dbgState{kind: dbgTransferred, site: dbgCallSite(), pin: s}
}

// debugRecv marks a delivered payload as owned by the receiving rank.
func debugRecv[T any](s []T) {
	k := dbgKey(s)
	if k == nil {
		return
	}
	dbgMu.Lock()
	// A shared broadcast buffer stays shared: the receiver holds a
	// reference, not the buffer.
	if st := dbgBufs[k]; st == nil || st.kind != dbgShared {
		delete(dbgBufs, k)
	}
	dbgMu.Unlock()
}

// debugGet marks a pooled buffer as reissued by getSlice.
func debugGet[T any](s []T) {
	k := dbgKey(s)
	if k == nil {
		return
	}
	dbgMu.Lock()
	delete(dbgBufs, k)
	dbgMu.Unlock()
}

// debugRelease checks and records a Release that will enter the pool, and
// poisons the buffer contents.
func debugRelease[T any](s []T) {
	k := dbgKey(s)
	if k == nil {
		return
	}
	dbgMu.Lock()
	defer dbgMu.Unlock()
	if st := dbgBufs[k]; st != nil {
		if st.kind == dbgReleased {
			panic(fmt.Sprintf("vmpi: second Release of a buffer (already released at %s; second release at %s)",
				st.site, dbgCallSite()))
		}
		panic(fmt.Sprintf("vmpi: Release of a buffer after %s at %s (release at %s)",
			st.verb(), st.site, dbgCallSite()))
	}
	full := s[:cap(s)]
	bytes := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(full))), cap(s)*sizeOf[T]())
	bytes[0] = 0xDB
	for n := 1; n < len(bytes); n *= 2 {
		copy(bytes[n:], bytes[:n]) // doubling fill: memmove speed
	}
	dbgBufs[k] = &dbgState{kind: dbgReleased, site: dbgCallSite(), pin: full}
}

// debugUse checks a buffer that re-enters the messaging layer as a payload
// source (every copying send funnels through copySlice).
func debugUse[T any](s []T) {
	k := dbgKey(s)
	if k == nil {
		return
	}
	dbgMu.Lock()
	defer dbgMu.Unlock()
	if st := dbgBufs[k]; st != nil {
		if st.kind == dbgShared {
			st.verify("") // reading a shared view is legal
			return
		}
		panic(fmt.Sprintf("vmpi: use of a buffer after %s at %s (use at %s)",
			st.verb(), st.site, dbgCallSite()))
	}
}

// debugShare registers the one buffer of a broadcast, held so far by its
// root's send loop, under the world rt.
func debugShare[T any](rt *Runtime, s []T) {
	k := dbgKey(s)
	if k == nil {
		return
	}
	if poolClass(cap(s)) >= 0 {
		panic("vmpi: shared broadcast buffer is pool-shaped")
	}
	data := unsafe.Slice((*byte)(k), len(s)*sizeOf[T]())
	dbgMu.Lock()
	defer dbgMu.Unlock()
	if st := dbgBufs[k]; st != nil {
		panic(fmt.Sprintf("vmpi: broadcast of a buffer after %s at %s (broadcast at %s)",
			st.verb(), st.site, dbgCallSite()))
	}
	dbgBufs[k] = &dbgState{kind: dbgShared, site: dbgCallSite(),
		rt: rt, holders: 1, data: data, sum: dbgSum(data)}
}

// dbgSharedEntry looks up the entry of a shared view. dbgMu must be held.
func dbgSharedEntry[T any](s []T) (unsafe.Pointer, *dbgState) {
	k := dbgKey(s)
	if k == nil {
		return nil, nil
	}
	if st := dbgBufs[k]; st != nil && st.kind == dbgShared {
		return k, st
	}
	return k, nil
}

// debugForward checks a shared buffer on its way to one more rank and
// counts that rank as a holder.
func debugForward[T any](s []T) {
	dbgMu.Lock()
	defer dbgMu.Unlock()
	k, st := dbgSharedEntry(s)
	if k == nil {
		return
	}
	if st == nil {
		panic(fmt.Sprintf("vmpi: forward of a shared broadcast buffer every holder already released (at %s)",
			dbgCallSite()))
	}
	st.verify("")
	st.holders++
}

// debugUnshare drops one holder's reference to a shared buffer — Release of
// a shared view, or the root's send loop finishing — and retires the entry
// with its last holder. Any other slice is ignored.
func debugUnshare[T any](s []T) {
	dbgMu.Lock()
	defer dbgMu.Unlock()
	k, st := dbgSharedEntry(s)
	if st == nil {
		return
	}
	st.verify("")
	if st.holders--; st.holders == 0 {
		delete(dbgBufs, k)
	}
}

// debugWorldEnd runs deferred when a world's Run returns or unwinds: no
// shared-buffer entry outlives the world that made it. On a clean return
// the buffers still held are verified one last time.
func debugWorldEnd(rt *Runtime) {
	p := recover()
	dbgMu.Lock()
	var stale []*dbgState
	for k, st := range dbgBufs {
		if st.kind == dbgShared && st.rt == rt {
			delete(dbgBufs, k)
			stale = append(stale, st)
		}
	}
	dbgMu.Unlock()
	if p != nil {
		panic(p)
	}
	for _, st := range stale {
		st.verify("world teardown")
	}
}
