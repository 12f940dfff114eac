package paperbench

import (
	"os"
	"strings"
	"testing"
)

// TestGoldens byte-compares the cheap figures against their checked-in
// baselines: the 1024-rank Figure 10 point, Figure R and Figure M, rendered
// for each machine exactly as cmd/paperbench prints them. Any change to a
// virtual second — a cost constant, a schedule, a replay — fails here. The
// Figure 6–9 baseline stays in make golden (Figures 8 and 9 cost about a
// minute); make golden-*-update regenerates a baseline.
func TestGoldens(t *testing.T) {
	machines := []Machine{JuRoPA(), Juqueen()}
	for _, g := range []struct {
		file   string
		render func(m Machine) string
	}{
		{"paperbench_fig10_1024.txt", func(m Machine) string { return RenderFig10(m.Name, Fig10(m, []int{1024})) }},
		{"paperbench_resize.txt", func(m Machine) string { return RenderFigResize(m.Name, FigResize(m)) }},
		{"paperbench_mem.txt", func(m Machine) string { return RenderFigMem(m.Name, FigMem(m)) }},
	} {
		t.Run(strings.TrimSuffix(g.file, ".txt"), func(t *testing.T) {
			if raceEnabled && g.file == "paperbench_resize.txt" {
				t.Skip("full elastic MD runs exceed the test timeout under the race detector")
			}
			want, err := os.ReadFile("../../testdata/golden/" + g.file)
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, m := range machines {
				got.WriteString(g.render(m))
				got.WriteString("\n")
			}
			if got.String() != string(want) {
				t.Errorf("output differs from testdata/golden/%s:\n--- got\n%s--- want\n%s", g.file, got.String(), want)
			}
		})
	}
}
