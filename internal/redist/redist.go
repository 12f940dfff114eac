// Package redist implements the fine-grained data redistribution operation
// of the paper (references [13] and [14], the ZMPI-ATASP library): an
// all-to-all-specific exchange in which every element is sent to an
// individually chosen target process, with optional duplication of elements
// (used to create ghost particles), plus the resort-index machinery that
// method B (§III-B) builds on.
//
// A Plan (NewPlan → Execute → Free, see plan.go) picks one of two
// communication backends, mirroring §III-B's P2NFFT optimization:
//
//   - By default it uses a collective all-to-all.
//   - With Options.Neighbors (or through ExchangeNeighborhood, the one
//     convenience wrapper) it exchanges blocks with a fixed neighbor set
//     only, charged as one eager message to and then from each neighbor
//     in list order. The set must be symmetric across ranks; the replay
//     rejects an asymmetric one, whose messages would not pair up. Each
//     rank buckets its routing over self + neighbors before the
//     collective fallback vote, so it waits there holding one index per
//     element, and its own block is copied straight from the input into
//     the result. If any element targets a rank outside the neighborhood,
//     all ranks transparently fall back to the collective backend.
//
// Resort indices are 64-bit values packing a target process rank (high 32
// bits) and a target position on that process (low 32 bits), exactly as
// described in §III-A for the P2NFFT solver's particle copies.
//
// Every entry point runs on that plan, which optionally decomposes an
// exchange into memory-bounded rounds under a byte budget
// (vmpi.Config.MaxExchangeBytes or Options.MaxBytes) with byte-identical
// results.
package redist

import (
	"fmt"

	"repro/internal/vmpi"
)

// Index packs a process rank and a local position.
type Index uint64

// Invalid marks ghost particles: duplicates that have no original particle
// to report back to (paper §III-A).
const Invalid Index = ^Index(0)

// MakeIndex packs rank and position into an Index.
func MakeIndex(rank, pos int) Index {
	if rank < 0 || pos < 0 || rank > 0x7fffffff || pos > 0x7fffffff {
		panic(fmt.Sprintf("redist: index out of range: rank %d pos %d", rank, pos))
	}
	return Index(uint64(rank)<<32 | uint64(pos))
}

// Rank extracts the process rank of an Index.
func (x Index) Rank() int { return int(x >> 32) }

// Pos extracts the local position of an Index.
func (x Index) Pos() int { return int(x & 0xffffffff) }

// Valid reports whether the index refers to an original particle.
func (x Index) Valid() bool { return x != Invalid }

// Targets assigns elements to target ranks. For element i it appends the
// target rank(s) to dst and returns the result; returning more than one
// rank duplicates the element (ghosts), returning none drops it.
type Targets func(i int, dst []int) []int

// ToRank adapts a single-target function to a Targets.
func ToRank(f func(i int) int) Targets {
	return func(i int, dst []int) []int { return append(dst, f(i)) }
}

// ExchangeNeighborhood performs the fine-grained redistribution of items —
// element i goes to every rank listed by targets(i), and the result holds,
// for each source rank in rank order, that rank's elements in their local
// order — exchanging blocks only with the given neighbor ranks (plus local
// copies to self). The neighbor set must be symmetric across ranks (if a is
// a neighbor of b, then b is a neighbor of a), as produced by
// vmpi.Cart.Neighbors. If any rank has an element targeting a rank outside
// its neighborhood, every rank falls back to the collective all-to-all; the
// second return value reports whether the neighborhood path was used.
//
// ExchangeNeighborhood is the one convenience over NewPlan/Execute/Free,
// with Options.Neighbors set; it honors the communicator's configured
// memory budget.
func ExchangeNeighborhood[T any](c *vmpi.Comm, items []T, targets Targets, neighbors []int) ([]T, bool) {
	if neighbors == nil {
		// A nil neighbor set must still request the neighborhood backend
		// (and its collective feasibility vote), not the plain all-to-all.
		neighbors = make([]int, 0)
	}
	pl := NewPlan(c, len(items), targets, Options{Neighbors: neighbors})
	out := Execute(pl, items)
	usedNbr := pl.UsedNeighborhood()
	pl.Free()
	return out, usedNbr
}
