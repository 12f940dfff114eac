//go:build !vmpidebug

package vmpi

// debugEnabled reports whether the vmpidebug runtime ownership checker is
// compiled in. Without the build tag every hook below is an empty function
// the compiler inlines away, so the checker costs nothing when off (see
// BenchmarkDebugHooksOff).
func debugEnabled() bool { return false }

func debugRelease[T any](s []T) {}
func debugUse[T any](s []T)     {}
func debugGet[T any](s []T)     {}

func debugTransfer[T any](rt *Runtime, op string, parts [][]T, keep int) {}
func debugShare[T any](rt *Runtime, s []T)                               {}
func debugForward[T any](s []T)                                          {}
func debugUnshare[T any](s []T)                                          {}
func debugWorldStart()                                                   {}
func debugWorldEnd(rt *Runtime)                                          {}

type dbgGroup struct{}

func debugGroup(g *rendezvous, n int, fn func(int)) bool { return false }
func debugCharge(g *rendezvous, rank int)                {}
