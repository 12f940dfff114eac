package vmpi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/netmodel"
)

// AllgatherBlocks switches from the ring algorithm to the gather+bcast tree
// above allgatherRingMax ranks. These tests pin the boundary contract:
//
//  1. both message-level algorithms (the reference bodies the rendezvous
//     replays) produce byte-identical blocks for the same inputs,
//  2. virtual-time cost is monotone in rank count within each algorithm
//     regime, and
//  3. at the switchover the tree is no more expensive than the ring —
//     the justification for switching at all. (Measured, the tree is
//     strictly cheaper: the total cost *drops* across the 32→33 boundary
//     on both network models, so we deliberately do not assert global
//     monotonicity across the switch.)

// boundaryBlock is the deterministic variable-length payload rank r
// contributes: (r%5)+1 words derived from r.
func boundaryBlock(r int) []uint64 {
	b := make([]uint64, (r%5)+1)
	for i := range b {
		b[i] = uint64(r)<<16 | uint64(i)
	}
	return b
}

func wantBoundaryBlocks(p int) [][]uint64 {
	want := make([][]uint64, p)
	for r := range want {
		want[r] = boundaryBlock(r)
	}
	return want
}

// allgatherCost runs AllgatherBlocks at p ranks on model and returns the
// resulting max virtual clock, verifying every rank's blocks on the way.
func allgatherCost(t *testing.T, p int, model netmodel.Model) float64 {
	t.Helper()
	want := wantBoundaryBlocks(p)
	st := Run(Config{Ranks: p, Model: model}, func(c *Comm) {
		got := AllgatherBlocks(c, boundaryBlock(c.Rank()))
		if !reflect.DeepEqual(got, want) {
			panic(fmt.Sprintf("rank %d: wrong blocks at p=%d", c.Rank(), p))
		}
	})
	return st.MaxClock()
}

func TestAllgatherBoundaryAlgorithmsAgree(t *testing.T) {
	// Force both algorithms at the same rank counts straddling the
	// switchover; the blocks every rank assembles must be identical.
	for _, p := range []int{4, 31, 32, 33, 40} {
		want := wantBoundaryBlocks(p)
		Run(Config{Ranks: p}, func(c *Comm) {
			ring := refAllgatherRing(c, boundaryBlock(c.Rank()))
			tree := refAllgatherTree(c, boundaryBlock(c.Rank()))
			if !reflect.DeepEqual(ring, tree) {
				panic(fmt.Sprintf("rank %d: ring and tree disagree at p=%d", c.Rank(), p))
			}
			if !reflect.DeepEqual(ring, want) {
				panic(fmt.Sprintf("rank %d: wrong blocks at p=%d", c.Rank(), p))
			}
		})
	}
}

func TestAllgatherBoundaryCostMonotone(t *testing.T) {
	models := []struct {
		name  string
		model func(p int) netmodel.Model
	}{
		{"switched", func(int) netmodel.Model { return netmodel.NewSwitched() }},
		{"torus", func(p int) netmodel.Model { return netmodel.NewTorus(p) }},
	}
	ringPs := []int{28, 30, 31, 32} // ring regime up to the boundary
	treePs := []int{33, 34, 36, 40} // tree regime from the boundary on
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			cost := func(p int) float64 { return allgatherCost(t, p, m.model(p)) }
			for _, ps := range [][]int{ringPs, treePs} {
				prev := cost(ps[0])
				for _, p := range ps[1:] {
					cur := cost(p)
					if cur < prev {
						t.Errorf("%s: cost not monotone within regime: p=%d costs %g < %g", m.name, p, cur, prev)
					}
					prev = cur
				}
			}
			// The reason the implementation switches: past the boundary the
			// tree beats what the ring was costing at the boundary.
			if ring32, tree33 := cost(32), cost(33); tree33 >= ring32 {
				t.Errorf("%s: tree at p=33 costs %g, not cheaper than ring at p=32 (%g)", m.name, tree33, ring32)
			}
		})
	}
}
