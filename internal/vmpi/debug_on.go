//go:build vmpidebug

package vmpi

// Runtime ownership checker: the one enforcer of the ownership protocol
// (see pool.go). Built with -tags vmpidebug, the messaging layer tracks the
// backing array of every buffer that changes hands through the protocol and
// panics, naming the offending call sites, on:
//
//   - sending a buffer (owned or copied) after its ownership was
//     transferred by AlltoallOwned (or the tests' SendOwned) or after it
//     was released;
//   - transferring a buffer twice, or transferring a released buffer;
//   - releasing a buffer twice, or releasing a transferred buffer;
//   - relinquishing (AlltoallOwned, SendOwned) or pool-releasing a shared
//     broadcast buffer;
//   - a store into a transferred buffer or into a shared one, found by a
//     checksum over the buffer's capacity (so an append into a shared
//     view's spare slot counts) taken when it was transferred or shared,
//     re-verified by every hook that meets the buffer and when the world
//     ends (a shared one also at each forward and at each holder's
//     Release).
//
// A transfer hands each receiver a copy of the same length and capacity and
// keeps the sender's original out of play, as a release does: both are
// poisoned with 0xDB bytes, so a stale load reads corrupted data instead of
// plausible values (element types holding pointers are never poisoned: the
// collector must not find garbage in them). Tracking is keyed by the backing
// array's address; the tracked state keeps the buffer reachable, so an
// address is never reused while an entry for it exists (no false positives
// from GC address reuse).
//
// Go cannot intercept plain loads and stores, so the checker meets a buffer
// only when it re-enters the messaging layer or its world ends. It cannot
// see a load after a transfer or release (the load reads the poison, which
// only a wrong result reveals; an element type holding pointers reads the
// old values), nor a store into a released buffer, which the pool may have
// handed out again. Three shapes need no check: len or cap of a
// transferred slice reads the caller's header, not memory the receiver
// holds; an append onto a shared view whose capacity equals its length
// copies it; and Release of a buffer whose capacity is no pool class does
// nothing to it, so neither does a second one.

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"unsafe"
)

// debugEnabled reports whether the vmpidebug runtime ownership checker is
// compiled in.
func debugEnabled() bool { return true }

const (
	dbgTransferred = iota
	dbgReleased
	dbgShared
)

// dbgState records why a backing array is currently off-limits.
type dbgState struct {
	kind int
	site string
	// data is the array's bytes up to the buffer's capacity; it keeps the
	// array reachable, so its address cannot be recycled for an unrelated
	// allocation while the entry exists.
	data []byte
	// Transferred and shared buffers: the world that transferred or shared
	// it, and the checksum of data as it was left (the poison) or shared.
	rt  *Runtime
	sum uint64
	// Shared buffers only: the ranks (and, while it fans out, the root's
	// send loop) currently holding a reference.
	holders int
}

var (
	dbgMu     sync.Mutex
	dbgBufs   = map[unsafe.Pointer]*dbgState{}
	dbgWorlds int // worlds running: the last to end retires the releases and transfers
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

// verify panics if a transferred or shared buffer no longer holds the bytes
// it was left with, naming the transfer or broadcast and where — the calling
// user site unless when says otherwise — the damage was found.
func (s *dbgState) verify(when string) {
	if s.kind == dbgReleased || dbgSum(s.data) == s.sum {
		return
	}
	if when == "" {
		when = dbgCallSite()
	}
	what, did := "shared broadcast buffer", "shared"
	if s.kind == dbgTransferred {
		what, did = "transferred buffer", "transferred"
	}
	panic(fmt.Sprintf("vmpi: %s was modified (%s at %s; detected at %s)", what, did, s.site, when))
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

// dbgBytes is the memory of s up to its capacity.
func dbgBytes[T any](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)*sizeOf[T]())
}

// dbgPoison fills b, the memory of a []T, with 0xDB bytes unless T holds
// pointers.
func dbgPoison[T any](b []byte) {
	if len(b) == 0 || dbgHasPointers(reflect.TypeFor[T]()) {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n]) // doubling fill: memmove speed
	}
}

func dbgHasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && dbgHasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if dbgHasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// dbgCallSite returns the first caller frame outside the vmpi
// implementation files — SendOwned's test file counts as one — i.e. the
// user call that entered the messaging layer (vmpi's own tests live in
// *_test.go files and are reported too).
func dbgCallSite() string {
	pc := make([]uintptr, 32)
	n := runtime.Callers(2, pc)
	frames := runtime.CallersFrames(pc[:n])
	for {
		f, more := frames.Next()
		switch filepath.Base(f.File) {
		case "debug_on.go", "p2p.go", "pool.go", "collectives.go", "rendezvous.go", "group.go", "sendowned_test.go":
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

// debugTransfer hands the receivers of an ownership transfer (an
// AlltoallOwned, or the tests' SendOwned) copies of parts — all but
// parts[keep], the self block — of the same length and capacity, so a
// receiver's Release balances the pool's books for the sender's draw. The
// originals are poisoned, pinned and recorded with the checksum of their
// poison. Every part is copied before any is poisoned, since parts may share
// a backing array. op names the transferring call in a panic.
func debugTransfer[T any](rt *Runtime, op string, parts [][]T, keep int) {
	orig := make([][]T, len(parts))
	for d, b := range parts {
		if d != keep && cap(b) > 0 {
			orig[d], parts[d] = b, append(make([]T, 0, cap(b)), b...)
		}
	}
	site := dbgCallSite()
	dbgMu.Lock()
	defer dbgMu.Unlock()
	for _, b := range orig {
		k := dbgKey(b)
		if k == nil {
			continue
		}
		if st := dbgBufs[k]; st != nil {
			st.verify(site)
			panic(fmt.Sprintf("vmpi: %s of a buffer after %s at %s (new transfer at %s)",
				op, st.verb(), st.site, site))
		}
		data := dbgBytes(b)
		dbgPoison[T](data)
		dbgBufs[k] = &dbgState{kind: dbgTransferred, site: site, data: data, rt: rt, sum: dbgSum(data)}
	}
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

// debugRelease checks and records a class-shaped Release, and poisons the
// buffer contents.
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
		st.verify("")
		panic(fmt.Sprintf("vmpi: Release of a buffer after %s at %s (release at %s)",
			st.verb(), st.site, dbgCallSite()))
	}
	data := dbgBytes(s)
	dbgPoison[T](data)
	dbgBufs[k] = &dbgState{kind: dbgReleased, site: dbgCallSite(), data: data}
}

// debugUse checks a buffer that re-enters the messaging layer as a payload
// source (every copying send, and every collective input copySlice stages).
func debugUse[T any](s []T) {
	k := dbgKey(s)
	if k == nil {
		return
	}
	dbgMu.Lock()
	defer dbgMu.Unlock()
	if st := dbgBufs[k]; st != nil {
		if st.verify(""); st.kind == dbgShared {
			return // reading a shared view is legal
		}
		panic(fmt.Sprintf("vmpi: use of a buffer after %s at %s (use at %s)",
			st.verb(), st.site, dbgCallSite()))
	}
}

// debugShare registers the one buffer of a shared result (or, in the
// message-level reference broadcast, the copy its root's send loop fans
// out), held so far by one holder, under the world rt.
func debugShare[T any](rt *Runtime, s []T) {
	k := dbgKey(s)
	if k == nil {
		return
	}
	if poolClass(cap(s)) >= 0 {
		panic("vmpi: shared broadcast buffer is pool-shaped")
	}
	data := dbgBytes(s)
	dbgMu.Lock()
	defer dbgMu.Unlock()
	if st := dbgBufs[k]; st != nil {
		st.verify("")
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

func debugWorldStart() {
	dbgMu.Lock()
	dbgWorlds++
	dbgMu.Unlock()
}

// debugWorldEnd runs deferred when a world's Run returns or unwinds: no
// shared-buffer or transfer entry outlives the world that made it, and no
// release outlives the last world running (debugWorldStart counts them) —
// its entry pins the buffer, and a buffer nobody reissues (a transferred
// original, a release the pool dropped or shed at a GC) would otherwise stay
// pinned for the life of the process. A transferred original is its world's
// alone, so a transfer catches a second one or a use until its world ends;
// a release, whose array the pool may hand to any world, until no world
// runs. On a clean return the world's shared buffers still held and its
// transferred originals are verified one last time.
func debugWorldEnd(rt *Runtime) {
	p := recover()
	dbgMu.Lock()
	dbgWorlds--
	var stale []*dbgState
	for k, st := range dbgBufs {
		if st.kind != dbgReleased && st.rt == rt {
			stale = append(stale, st)
		}
		if (st.kind != dbgReleased && st.rt == rt) || (st.kind == dbgReleased && dbgWorlds == 0) {
			delete(dbgBufs, k)
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

// dbgGroup is what a rendezvous knows of the Replayer.Group replaying:
// whether one is, the task running and, per slot, 1 + the task that first
// charged it in this group (0: none yet).
type dbgGroup struct {
	in    bool
	task  int
	owner []int
}

// debugGroup runs a Group's tasks in order on the replaying goroutine, so
// that debugCharge knows which task charges a slot, and reports that it
// did.
func debugGroup(g *rendezvous, n int, fn func(int)) bool {
	d := &g.dbg
	if len(d.owner) != len(g.slots) {
		d.owner = make([]int, len(g.slots))
	}
	clear(d.owner)
	d.in = true
	defer func() { d.in = false }()
	for i := range n {
		d.task = i
		fn(i)
	}
	return true
}

// debugCharge panics if, inside a Group, a task charges a rank another task
// of the group has charged.
func debugCharge(g *rendezvous, rank int) {
	d := &g.dbg
	if !d.in {
		return
	}
	if o := d.owner[rank]; o == 0 {
		d.owner[rank] = d.task + 1
	} else if o != d.task+1 {
		panic(fmt.Sprintf("vmpi: Group tasks %d and %d both charge rank %d (at %s)", o-1, d.task, rank, dbgCallSite()))
	}
}
