package fmm

import "repro/internal/zorder"

// InteractionListNeighborsForTest exposes the neighbor set used when
// building interaction lists, for white-box tests.
func (e *engine) InteractionListNeighborsForTest(key uint64) []uint64 {
	return zorder.Neighbors3(key, e.Level, e.Periodic)
}
