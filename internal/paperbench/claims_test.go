package paperbench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fig9Row is one rank row of a Figure 9 golden: total virtual seconds for
// method A, method B and B + max movement.
type fig9Row struct {
	ranks         int
	a, b, maxMove float64
}

// claims are the paper's Figure 9 headline sentences as EXPERIMENTS.md
// states them, each checked on the rows of the committed golden it is
// about. make golden checks that a golden is what the program prints; a
// claim checks that it says what the paper says. No simulation runs.
var claims = []struct {
	golden string
	quote  string // verbatim from EXPERIMENTS.md, bold and line breaks aside
	holds  func(t *testing.T, rows []fig9Row)
}{
	{"fig9l.txt", "B + max movement is consistently slower than plain B", func(t *testing.T, rows []fig9Row) {
		for _, r := range rows {
			if r.maxMove <= r.b {
				t.Errorf("%d ranks: B + max movement %g is not slower than plain B %g", r.ranks, r.maxMove, r.b)
			}
		}
	}},
	{"fig9r.txt", "B + max movement is the fastest variant at 16 ranks", func(t *testing.T, rows []fig9Row) {
		for _, r := range rows {
			if r.ranks == 16 {
				if r.maxMove >= r.a || r.maxMove >= r.b {
					t.Errorf("16 ranks: B + max movement %g is not below method A %g and method B %g", r.maxMove, r.a, r.b)
				}
				return
			}
		}
		t.Error("no 16-rank row")
	}},
}

func TestFig9Claims(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	prose := strings.Join(strings.Fields(strings.ReplaceAll(string(doc), "**", "")), " ")
	for _, c := range claims {
		t.Run(c.golden, func(t *testing.T) {
			if !strings.Contains(prose, c.quote) {
				t.Fatalf("EXPERIMENTS.md no longer says %q", c.quote)
			}
			rows := readFig9Golden(t, c.golden)
			if len(rows) == 0 {
				t.Fatalf("%s has no rank rows", c.golden)
			}
			c.holds(t, rows)
		})
	}
}

// readFig9Golden parses the rank rows of a Figure 9 golden: a rank count
// and three totals per line; the title and the column header are skipped.
func readFig9Golden(t *testing.T, file string) []fig9Row {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	var rows []fig9Row
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		ranks, err := strconv.Atoi(f[0])
		if err != nil {
			continue
		}
		var v [3]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
				t.Fatalf("%s: row %q: %v", file, line, err)
			}
		}
		rows = append(rows, fig9Row{ranks, v[0], v[1], v[2]})
	}
	return rows
}
