//go:build !vmpidebug

package vmpi

// DebugEnabled reports whether the vmpidebug runtime ownership checker is
// compiled in. Without the build tag every hook below is an empty function
// the compiler inlines away, so the checker costs nothing when off (see
// BenchmarkDebugHooksOff).
func DebugEnabled() bool { return false }

func debugTransfer[T any](s []T) {}
func debugRelease[T any](s []T)  {}
func debugUse[T any](s []T)      {}
func debugRecv[T any](s []T)     {}
func debugGet[T any](s []T)      {}

func debugShare[T any](rt *Runtime, s []T) {}
func debugForward[T any](s []T)            {}
func debugUnshare[T any](s []T)            {}
func debugWorldEnd(rt *Runtime)            {}
