// Package vmpi is a fixture stub of the real messaging layer
// (repro/internal/vmpi).
package vmpi

type Comm struct{}

func (c *Comm) Compute(seconds float64) {}

func Send[T any](c *Comm, data []T, dst, tag int) {}
