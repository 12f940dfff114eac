package vmpi

import "testing"

// TestDebugDisabledByDefault pins the default build: the runtime ownership
// checker is opt-in via -tags vmpidebug (see Makefile debugtest).
func TestDebugDisabledByDefault(t *testing.T) {
	if debugEnabled() {
		t.Skip("built with -tags vmpidebug")
	}
}

// BenchmarkDebugHooksOff measures the pooled copy/release roundtrip the
// vmpidebug hooks sit on. In the default build the hooks are empty
// functions the compiler inlines away; compare against
// `go test -tags vmpidebug -bench DebugHooks` to see the checker's cost.
func BenchmarkDebugHooksOff(b *testing.B) {
	if debugEnabled() {
		b.Skip("measuring the default build; rerun without -tags vmpidebug")
	}
	benchmarkHookedRoundtrip(b)
}

// BenchmarkDebugHooksOn is the same roundtrip with the checker compiled
// in, for a direct comparison.
func BenchmarkDebugHooksOn(b *testing.B) {
	if !debugEnabled() {
		b.Skip("rerun with -tags vmpidebug")
	}
	benchmarkHookedRoundtrip(b)
}

func benchmarkHookedRoundtrip(b *testing.B) {
	src := make([]float64, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := copySlice(src) // debugUse + debugGet
		Release(out)          // debugRelease
	}
}
