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

// TestFig10MeasuredTables: the rows EXPERIMENTS.md's two hand-copied
// Figure 10 tables share with paperbench_fig10_1024.txt — the 1024-rank
// point — read the same there as in the golden, cell for cell at the
// printed precision, so the tables cannot drift from the figure.
func TestFig10MeasuredTables(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "paperbench_fig10_1024.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct{ model, heading string }{
		{"(switched)", "**Measured** on the switched (JuRoPA-like) model:"},
		{"(torus)", "On the torus (Juqueen-like) model:"},
	} {
		table, gold := markdownTableAfter(string(doc), m.heading), goldenBlock(string(golden), m.model)
		if len(gold) == 0 {
			t.Fatalf("the golden has no %s rank rows", m.model)
		}
		for ranks, want := range gold {
			if got, ok := table[ranks]; !ok {
				t.Errorf("%s: EXPERIMENTS.md's table has no %s-rank row", m.model, ranks)
			} else if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s, %s ranks: EXPERIMENTS.md reads %q, the golden %q", m.model, ranks, got, want)
			}
		}
	}
}

// markdownTableAfter is the table that follows the line heading in doc,
// its rows keyed by their first cell.
func markdownTableAfter(doc, heading string) map[string][]string {
	rows := map[string][]string{}
	_, rest, ok := strings.Cut(doc, heading+"\n")
	if !ok {
		return rows
	}
	for _, line := range strings.Split(strings.TrimLeft(rest, "\n"), "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows[cells[0]] = cells[1:]
	}
	return rows
}

// goldenBlock is the rank rows of the golden's block whose title names
// model, keyed by rank count.
func goldenBlock(golden, model string) map[string][]string {
	rows := map[string][]string{}
	for _, block := range strings.Split(golden, "\n\n") {
		title, body, _ := strings.Cut(block, "\n")
		if !strings.Contains(title, model) {
			continue
		}
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) > 1 {
				if _, err := strconv.Atoi(f[0]); err == nil {
					rows[f[0]] = f[1:]
				}
			}
		}
	}
	return rows
}
