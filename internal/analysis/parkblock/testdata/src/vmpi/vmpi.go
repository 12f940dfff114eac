// Package vmpi is a fixture stub of the real messaging layer
// (repro/internal/vmpi): just enough surface for the parkblock fixtures.
package vmpi

type Config struct{ Ranks int }

type Comm struct{}

func Run(cfg Config, body func(c *Comm)) {}

func Barrier(c *Comm)                             {}
func Send[T any](c *Comm, data []T, dst, tag int) {}
