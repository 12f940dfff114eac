// Package vmpi is a fixture stub of the real messaging layer
// (repro/internal/vmpi): just enough surface for the collsym fixtures.
package vmpi

type Comm struct{}

func (c *Comm) Rank() int      { return 0 }
func (c *Comm) Size() int      { return 1 }
func (c *Comm) WorldRank() int { return 0 }

func (c *Comm) Split(color, key int) *Comm { return c }

func Send[T any](c *Comm, data []T, dst, tag int)      {}
func SendOwned[T any](c *Comm, data []T, dst, tag int) {}
func Recv[T any](c *Comm, src, tag int) []T            { return nil }

func Barrier(c *Comm)                             {}
func Allreduce(c *Comm, vals []float64) []float64 { return vals }
func AllreduceVal(c *Comm, v float64) float64     { return v }
func Allgather[T any](c *Comm, data []T) []T      { return data }

type Replayer struct{}

func Replay[S any](c *Comm, op string, state *S, fn func(h *Replayer, states []*S)) {}
