package main

import (
	"math"
	"testing"
)

// TestCheckInputs pins which numeric flag values the command turns away
// before any virtual machine starts.
func TestCheckInputs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ranks     int
		particles int
		accuracy  float64
		ok        bool
	}{
		{"defaults", 8, 6000, 1e-3, true},
		{"one rank one particle", 1, 1, 0.5, true},
		{"zero ranks", 0, 6000, 1e-3, false},
		{"negative ranks", -4, 6000, 1e-3, false},
		{"zero particles", 8, 0, 1e-3, false},
		{"negative particles", 8, -5, 1e-3, false},
		{"zero accuracy", 8, 6000, 0, false},
		{"negative accuracy", 8, 6000, -1e-3, false},
		{"accuracy one", 8, 6000, 1, false},
		{"NaN accuracy", 8, 6000, math.NaN(), false},
	} {
		err := checkInputs(tc.ranks, tc.particles, tc.accuracy)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkInputs(%d, %d, %v) = %v, want ok=%v",
				tc.name, tc.ranks, tc.particles, tc.accuracy, err, tc.ok)
		}
	}
}
