// Package vmpi is a fixture stub of the real messaging layer
// (repro/internal/vmpi): same names and shapes, no behavior. The analyzers
// match callees by package name, so fixtures exercise them without
// importing the real runtime.
package vmpi

type Comm struct{}

func (c *Comm) Rank() int      { return 0 }
func (c *Comm) Size() int      { return 1 }
func (c *Comm) WorldRank() int { return 0 }

func Send[T any](c *Comm, data []T, dst, tag int)      {}
func SendOwned[T any](c *Comm, data []T, dst, tag int) {}
func Recv[T any](c *Comm, src, tag int) []T            { return nil }

func Alltoall[T any](c *Comm, parts [][]T) [][]T      { return parts }
func AlltoallOwned[T any](c *Comm, parts [][]T) [][]T { return parts }

func Release[T any](s []T)              {}
func ReleaseBlocks[T any](blocks [][]T) {}

func Bcast[T any](c *Comm, data []T, root int) []T              { return data }
func Allreduce[T any](c *Comm, data []T, op func(a, b T) T) []T { return data }
func Allgather[T any](c *Comm, data []T) []T                    { return data }
func AllgatherBlocks[T any](c *Comm, data []T) [][]T            { return nil }
func AllreduceVal[T any](c *Comm, v T, op func(a, b T) T) T     { return v }
