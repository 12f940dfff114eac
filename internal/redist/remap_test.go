package redist

import (
	"testing"

	"repro/internal/vmpi"
)

func TestBlockPartOwnerCountConsistent(t *testing.T) {
	for _, tc := range []struct{ total, p int }{
		{0, 3}, {1, 4}, {7, 3}, {12, 4}, {13, 4}, {100, 7},
	} {
		b := blockPart{Total: int64(tc.total), P: tc.p}
		counts := make([]int, tc.p)
		prev := 0
		for g := 0; g < tc.total; g++ {
			r := b.Owner(int64(g))
			if r < prev {
				t.Fatalf("total=%d p=%d: owner not monotone at g=%d", tc.total, tc.p, g)
			}
			prev = r
			counts[r]++
		}
		for r, n := range counts {
			if n != b.Count(r) {
				t.Errorf("total=%d p=%d: rank %d owns %d, Count says %d", tc.total, tc.p, r, n, b.Count(r))
			}
			if d := n - b.Count((r+1)%tc.p); d < -1 || d > 1 {
				t.Errorf("total=%d p=%d: imbalance beyond 1 element", tc.total, tc.p)
			}
		}
	}
}

// TestRemapBlocksShrink remaps an uneven distribution onto fewer ranks:
// the global element order must be preserved, the target ranks must end up
// block-balanced, and the retiring ranks empty.
func TestRemapBlocksShrink(t *testing.T) {
	const p, newP = 6, 4
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		// Rank r contributes 2r+1 elements tagged with their global index.
		mine := make([]int64, 2*c.Rank()+1)
		base := int64(c.Rank() * c.Rank()) // sum of (2i+1) for i<r
		for i := range mine {
			mine[i] = base + int64(i)
		}
		got := RemapBlocks(c, mine, newP)
		c.SetResult(append([]int64(nil), got...))
	})
	total := int64(p * p)
	part := blockPart{Total: total, P: newP}
	next := int64(0)
	for r := 0; r < p; r++ {
		got := st.Values[r].([]int64)
		want := 0
		if r < newP {
			want = part.Count(r)
		}
		if len(got) != want {
			t.Fatalf("rank %d holds %d elements, want %d", r, len(got), want)
		}
		for _, g := range got {
			if g != next {
				t.Fatalf("rank %d: global order broken: got %d, want %d", r, g, next)
			}
			next++
		}
	}
	if next != total {
		t.Fatalf("remap delivered %d elements, want %d", next, total)
	}
}

// TestRemapBlocksFullWorld covers the grow-side use: newP == Size spreads
// a distribution where some ranks (the just-admitted ones) hold nothing.
func TestRemapBlocksFullWorld(t *testing.T) {
	const p = 5
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		var mine []int64
		if c.Rank() < 2 { // ranks 2..4 model admitted ranks with no state yet
			for i := 0; i < 9; i++ {
				mine = append(mine, int64(9*c.Rank()+i))
			}
		}
		got := RemapBlocks(c, mine, p)
		c.SetResult(append([]int64(nil), got...))
	})
	next := int64(0)
	for r := 0; r < p; r++ {
		got := st.Values[r].([]int64)
		if len(got) < 3 || len(got) > 4 {
			t.Fatalf("rank %d holds %d elements, want a balanced block of 18", r, len(got))
		}
		for _, g := range got {
			if g != next {
				t.Fatalf("rank %d: global order broken: got %d, want %d", r, g, next)
			}
			next++
		}
	}
}

func TestRemapBlocksPanicsOnBadTarget(t *testing.T) {
	for _, newP := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RemapBlocks to %d ranks on 4 did not panic", newP)
				}
			}()
			vmpi.Run(vmpi.Config{Ranks: 4}, func(c *vmpi.Comm) {
				RemapBlocks(c, []int{1}, newP)
			})
		}()
	}
}
