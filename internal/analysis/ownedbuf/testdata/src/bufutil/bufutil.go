// Package bufutil provides cross-package buffer helpers for the
// ownedbuf interprocedural fixtures: their TransfersParam /
// ReleasesParam facts must survive the package boundary.
package bufutil

import "vmpi"

// Ship relinquishes b via SendOwned (TransfersParam bit 1).
func Ship(c *vmpi.Comm, b []float64) { vmpi.SendOwned(c, b, 1, 0) }

// Drop releases b (ReleasesParam bit 0).
func Drop(b []float64) { vmpi.Release(b) }

// Counts returns a shared allgather view (SharedResult fact).
func Counts(c *vmpi.Comm, n int64) []int64 { return vmpi.Allgather(c, []int64{n}) }
