package paperbench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the baselines under testdata/golden instead of diffing against them")

// diffGolden byte-compares got against testdata/golden/<file>, or, under
// -update, rewrites that file with got.
func diffGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "(end of file)"
	}
	t.Errorf("output differs from testdata/golden/%s at line %d:\n got: %s\nwant: %s\n(go test -update rewrites the baselines)",
		file, i+1, line(gl), line(wl))
}

// diffExports diffs a traced cell's Chrome trace and metrics dump against
// testdata/golden/<prefix>_trace.json and <prefix>_metrics.txt: the bytes
// paperbench -trace-out/-metrics-out write.
func diffExports(t *testing.T, prefix string, l *obs.Log) {
	t.Helper()
	var trace, metrics bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, l); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetrics(&metrics, l); err != nil {
		t.Fatal(err)
	}
	diffGolden(t, prefix+"_trace.json", trace.Bytes())
	diffGolden(t, prefix+"_metrics.txt", metrics.Bytes())
}

// TestGoldens renders every entry of the figure table at its default
// configuration, exactly as cmd/paperbench prints it, and byte-compares the
// text against the entry's baseline under testdata/golden; the shape of
// Figures 6–8 is asserted on the very rows the diff renders. Any change to
// a virtual second — a cost constant, a schedule, a replay — fails here.
// Figure 10 is diffed at 1024 ranks, once with the engine's run slots and
// once pinned to 4. Figures 9l and 9r (about 70 s together) are rewritten
// under -update but diffed only by make golden.
func TestGoldens(t *testing.T) {
	cases := []struct {
		name, file string
		ranks      []int // nil: the entry's own sweep
		workers    int
		check      func(t *testing.T, rows any)
		slow       bool // skipped under the race detector
		makeOnly   bool // diffed by make golden, rewritten by -update
	}{
		{name: "6", file: "fig6.txt", check: checkFig6Shape},
		{name: "7", file: "fig7.txt", check: checkFig7Shape},
		{name: "8", file: "fig8.txt", check: checkFig8Shape, slow: true},
		{name: "9l", file: "fig9l.txt", makeOnly: true},
		{name: "9r", file: "fig9r.txt", makeOnly: true},
		{name: "10", file: "paperbench_fig10_1024.txt", ranks: []int{1024}},
		{name: "10", file: "paperbench_fig10_1024.txt", ranks: []int{1024}, workers: 4},
		{name: "resize", file: "paperbench_resize.txt", slow: true},
		{name: "mem", file: "paperbench_mem.txt"},
	}
	byName := map[string]Figure{}
	for _, f := range Figures() {
		byName[f.Name] = f
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.name] = true
		sub := strings.TrimSuffix(tc.file, ".txt")
		if tc.workers != 0 {
			sub += fmt.Sprintf("_w%d", tc.workers)
		}
		t.Run(sub, func(t *testing.T) {
			if tc.slow && raceEnabled {
				t.Skip("drift and elastic MD runs exceed the test timeout under the race detector")
			}
			if tc.makeOnly && !*update {
				t.Skip("make golden diffs this figure")
			}
			f, ok := byName[tc.name]
			if !ok {
				t.Fatalf("no figure %q in the table", tc.name)
			}
			cfg, ranks := f.Config, f.Ranks
			cfg.Workers = tc.workers
			if tc.ranks != nil {
				ranks = tc.ranks
			}
			text, rows := f.run(cfg, ranks, 0)
			if tc.check != nil {
				tc.check(t, rows)
			}
			diffGolden(t, tc.file, []byte(text))
		})
	}
	for name := range byName {
		if !covered[name] {
			t.Errorf("figure %q has no golden", name)
		}
	}
}
