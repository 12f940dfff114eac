// Package sharedro holds the cases for the shared read-only rule: what
// vmpi.Allreduce and vmpi.Allgather return — directly or
// through helpers, in-package and across packages — is one broadcast
// buffer up to P ranks hold at once, so it may be read and released but
// never written or relinquished.
package sharedro

import (
	"bufutil"
	"vmpi"
)

type header struct {
	Count    int64
	Min, Max uint64
}

func sum(a, b int64) int64 { return a + b }

func fsum(a, b float64) float64 { return a + b }

func storeIntoAllreduce(c *vmpi.Comm, table []float64) {
	got := vmpi.Allreduce(c, table, fsum)
	got[0] = 1 // want `element store into got, a shared read-only view returned by Allreduce at`
}

func opAssignAndIncDec(c *vmpi.Comm, counts []int64) {
	tot := vmpi.Allreduce(c, counts, sum)
	tot[1] += 2 // want `element store into tot, a shared read-only view returned by Allreduce at`
	tot[2]++    // want `element store into tot, a shared read-only view returned by Allreduce at`
}

func fieldStore(c *vmpi.Comm, h header) {
	all := vmpi.Allgather(c, []header{h})
	all[3].Count = 0 // want `element store into all, a shared read-only view returned by Allgather at`
}

func copyInto(c *vmpi.Comm, counts, fresh []int64) {
	all := vmpi.Allgather(c, counts)
	copy(all, fresh)     // want `copy into all, a shared read-only view returned by Allgather at`
	copy(all[2:], fresh) // want `copy into all, a shared read-only view returned by Allgather at`
}

func appendOnto(c *vmpi.Comm, counts []int64) []int64 {
	all := vmpi.Allgather(c, counts)
	return append(all, 7) // want `append onto all, a shared read-only view returned by Allgather at`
}

func clearOf(c *vmpi.Comm, counts []int64) {
	all := vmpi.Allgather(c, counts)
	clear(all) // want `clear of all, a shared read-only view returned by Allgather at`
}

func relinquish(c *vmpi.Comm, counts []int64) {
	all := vmpi.Allgather(c, counts)
	vmpi.SendOwned(c, all, 1, 0) // want `SendOwned of all, a shared read-only view returned by Allgather at`
}

func relinquishViaHelper(c *vmpi.Comm, table []float64) {
	got := vmpi.Allreduce(c, table, fsum)
	bufutil.Ship(c, got) // want `call to Ship of got, a shared read-only view returned by Allreduce at`
}

func storeThroughAlias(c *vmpi.Comm, counts []int64) {
	all := vmpi.Allgather(c, counts)
	tail := all[4:]
	tail[0] = 9 // want `element store into tail, a shared read-only view returned by Allgather at`
}

func storeIntoResliced(c *vmpi.Comm, counts []int64) {
	head := vmpi.Allgather(c, counts)[:2]
	head[0] = 9 // want `element store into head, a shared read-only view returned by Allgather at`
}

// gatherCounts returns a shared view through a local (SharedResult fact).
func gatherCounts(c *vmpi.Comm, n int64) []int64 {
	all := vmpi.Allgather(c, []int64{n})
	return all
}

// wrapped forwards through another helper — the facts compose.
func wrapped(c *vmpi.Comm, n int64) []int64 { return gatherCounts(c, n) }

func storeViaHelper(c *vmpi.Comm) {
	counts := wrapped(c, 3)
	counts[0] = 0 // want `element store into counts, a shared read-only view returned by wrapped at`
}

func storeViaCrossPackageHelper(c *vmpi.Comm) {
	counts := bufutil.Counts(c, 3)
	counts[0] = 0 // want `element store into counts, a shared read-only view returned by Counts at`
}

// okReadAndRelease: the whole legal surface — index, range, len, reslice,
// copy out of, a copying Send, and Release (a no-op on a shared view).
func okReadAndRelease(c *vmpi.Comm, counts []int64) int64 {
	all := vmpi.Allgather(c, counts)
	t := all[0]
	for _, v := range all[1:] {
		t += v
	}
	mine := make([]int64, len(all))
	copy(mine, all)
	mine[0] = t
	vmpi.Send(c, all, 1, 0)
	vmpi.Release(all)
	return t
}

// okRebind: reassigning the name ends the tracking — it denotes a fresh
// private buffer afterwards.
func okRebind(c *vmpi.Comm, counts []int64) []int64 {
	all := vmpi.Allgather(c, counts)
	all = append([]int64(nil), all...)
	all[0] = 1
	return all
}

// okPrivateResults: blocks and single values are private copies.
func okPrivateResults(c *vmpi.Comm, counts []int64) {
	blocks := vmpi.AllgatherBlocks(c, counts)
	blocks[0][0] = 1
	n := vmpi.AllreduceVal(c, int64(1), sum)
	counts[0] = n
}

// okOwnInput: the input of an allgather stays the caller's own.
func okOwnInput(c *vmpi.Comm, table []float64) {
	got := vmpi.Allgather(c, table)
	table[0] = got[0] + 1
	vmpi.Release(table)
}
