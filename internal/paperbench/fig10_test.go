package paperbench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestFig10SmallSweep checks the Figure 10 machinery at test-scale rank
// counts: every cell is positive, the table renders every rank count, and
// the neighborhood exchange beats the full merge-exchange network once
// there is more than a handful of ranks (the paper's §III-B motivation).
func TestFig10SmallSweep(t *testing.T) {
	ranks := []int{4, 16}
	pts := Fig10(Juqueen(), ranks)
	if len(pts) != len(ranks) {
		t.Fatalf("got %d points, want %d", len(pts), len(ranks))
	}
	for i, p := range pts {
		if p.Ranks != ranks[i] {
			t.Errorf("point %d has ranks %d, want %d", i, p.Ranks, ranks[i])
		}
		if p.Merge <= 0 || p.Neighborhood <= 0 {
			t.Errorf("ranks %d: non-positive cell: merge %v nbr %v", p.Ranks, p.Merge, p.Neighborhood)
		}
		if p.Ranks >= 16 && p.Merge <= p.Neighborhood {
			t.Errorf("ranks %d: merge sort (%v) should cost more than neighborhood exchange (%v)",
				p.Ranks, p.Merge, p.Neighborhood)
		}
	}
	out := RenderFig10(Juqueen().Name, pts)
	for _, want := range []string{"Figure 10", "merge sort", "neighborhood", "4 ", "16 "} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestFig10DriftBounded verifies the workload generator's contract: a
// drifted key never leaves the global key space and never moves an element
// further than one owner range, the property that makes the ±1 neighborhood
// sufficient (and the fallback panic in fig10Body unreachable).
func TestFig10DriftBounded(t *testing.T) {
	const p = 8
	maxKey := uint64(p)*fig10RangeWidth - 1
	moved, total := 0, 0
	for r := 0; r < p; r++ {
		for _, k := range fig10Keys(r) {
			for s := 0; s < fig10Steps; s++ {
				nk := fig10Drift(k, s, maxKey)
				if nk > maxKey {
					t.Fatalf("drift escaped key space: %d -> %d", k, nk)
				}
				oldOwner, newOwner := int(k/fig10RangeWidth), int(nk/fig10RangeWidth)
				if d := newOwner - oldOwner; d < -1 || d > 1 {
					t.Fatalf("drift moved owner by %d (key %d -> %d)", d, k, nk)
				}
				if nk != k {
					moved++
				}
				total++
				k = nk
			}
		}
	}
	if moved == 0 {
		t.Fatal("drift never moved any element; workload is static")
	}
	if moved > total/4 {
		t.Fatalf("drift moved %d of %d samples; data is no longer almost sorted", moved, total)
	}
}

// BenchmarkFig10 is Figure 10's host-cost row: one sub-benchmark per
// machine × rank count (the default sweep plus 65536) × strategy, each one
// virtual machine run of the figure's cell. Besides ns/op it reports the
// cell's virtual seconds per step (equal to the figure table), the rank
// executor's parks and wakeups, and, after a forced GC, the process's
// sys and in-use heap bytes. Select one row with, for example,
//
//	go test -run '^$' -bench 'Fig10/torus/ranks=16384/' -benchtime 1x ./internal/paperbench
func BenchmarkFig10(b *testing.B) {
	machines := []struct {
		name string
		m    Machine
	}{{"switched", JuRoPA()}, {"torus", Juqueen()}}
	for _, mc := range machines {
		for _, p := range append(Fig10DefaultRanks(), 65536) {
			for _, strategy := range []string{"merge", "nbr"} {
				b.Run(fmt.Sprintf("%s/ranks=%d/%s", mc.name, p, strategy), func(b *testing.B) {
					st := fig10Run(mc.m, p, strategy == "merge")
					for i := 1; i < b.N; i++ {
						st = fig10Run(mc.m, p, strategy == "merge")
					}
					b.StopTimer()
					b.ReportMetric(fig10Steady(st), "vsec/step")
					b.ReportMetric(float64(st.Exec.Parks), "parks")
					b.ReportMetric(float64(st.Exec.Wakeups), "wakeups")
					runtime.GC()
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					b.ReportMetric(float64(ms.Sys), "sys-bytes")
					b.ReportMetric(float64(ms.HeapInuse), "heap-inuse-bytes")
				})
			}
		}
	}
}
