package main

import (
	"math"
	"testing"

	"repro/internal/paperbench"
)

// TestCheckInputs pins which numeric flag values the command turns away
// before any virtual machine starts.
func TestCheckInputs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ranks     int
		particles int
		accuracy  float64
		workers   int
		ok        bool
	}{
		{"defaults", 8, 6000, 1e-3, 0, true},
		{"one rank one particle", 1, 1, 0.5, 0, true},
		{"pinned workers", 8, 6000, 1e-3, 4, true},
		{"zero ranks", 0, 6000, 1e-3, 0, false},
		{"negative ranks", -4, 6000, 1e-3, 0, false},
		{"zero particles", 8, 0, 1e-3, 0, false},
		{"negative particles", 8, -5, 1e-3, 0, false},
		{"zero accuracy", 8, 6000, 0, 0, false},
		{"negative accuracy", 8, 6000, -1e-3, 0, false},
		{"accuracy one", 8, 6000, 1, 0, false},
		{"NaN accuracy", 8, 6000, math.NaN(), 0, false},
		{"negative workers", 8, 6000, 1e-3, -1, false},
	} {
		err := checkInputs(tc.ranks, tc.particles, tc.accuracy, tc.workers)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkInputs(%d, %d, %v, %d) = %v, want ok=%v",
				tc.name, tc.ranks, tc.particles, tc.accuracy, tc.workers, err, tc.ok)
		}
	}
}

// TestLookup checks that -fig accepts every table entry alone and all as
// the paper's figures, and turns an unknown name away.
func TestLookup(t *testing.T) {
	figs := paperbench.Figures()
	for _, f := range figs {
		sel, err := lookup(figs, f.Name)
		if err != nil || len(sel) != 1 || sel[0].Name != f.Name {
			t.Errorf("lookup(%q) = %d figures, %v; want that one figure", f.Name, len(sel), err)
		}
	}
	all, err := lookup(figs, "all")
	if err != nil || len(all) == 0 {
		t.Fatalf("lookup(all) = %d figures, %v", len(all), err)
	}
	for _, f := range all {
		if !f.InAll {
			t.Errorf("lookup(all) selected %q, which is outside -fig all", f.Name)
		}
	}
	if sel, err := lookup(figs, "11"); err == nil {
		t.Errorf("lookup(11) = %d figures, want an error", len(sel))
	}
}
