// Package elastic (fixture) exercises the hot-package scope of the
// determinism analyzer for the live-resize remap layer: matching is by
// package name, so this stands in for repro/internal/elastic. A remap
// decides which rank receives which particle; the assignment must be a
// pure function of the pre-resize distribution — the resize figure goldens
// and the worker-count byte identity depend on it — so the remap path may
// not read the wall clock, draw random placements, or walk maps.
package elastic

import (
	"math/rand"
	"time"
)

// remapViolations: stamping remap records with wall time, scattering
// particles to random targets, and draining a staging map in iteration
// order would all make the post-resize distribution depend on the host.
func remapViolations(staged map[int][]float64, send func(rank int, rec []float64)) {
	_ = time.Now()                  // want `time.Now reads the wall clock`
	target := rand.Intn(8)          // want `math/rand in a hot path`
	for rank, rec := range staged { // want `map iteration order is nondeterministic in a hot path`
		send(rank, rec)
		_ = target
	}
}

// remapBlocks is the accepted idiom (negative case): the target rank of a
// particle is pure arithmetic on its global index against the balanced
// block partition, and records are sent in local order.
func remapBlocks(offset, total int64, newP int, recs [][]float64, send func(rank int, rec []float64)) {
	q := total / int64(newP)
	rem := total % int64(newP)
	for i, rec := range recs {
		g := offset + int64(i)
		var rank int64
		if g < rem*(q+1) {
			rank = g / (q + 1)
		} else {
			rank = rem + (g-rem*(q+1))/q
		}
		send(int(rank), rec)
	}
}
