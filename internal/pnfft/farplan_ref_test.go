package pnfft

import (
	"fmt"
	"testing"

	"repro/internal/api"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

// refRetPlan is the return-exchange sender plan as the map-based scan built
// it: every region point in scan order, deduplicated per destination by a
// set of the flat indices already emitted.
func refRetPlan(s *Solver, p *farPlan) (retFlat, retLoc [][]int32) {
	n, size := s.Mesh, s.comm.Size()
	retFlat, retLoc = make([][]int32, size), make([][]int32, size)
	for r := 0; r < size; r++ {
		rlo, rhi := s.meshRegionOf(r)
		seen := map[int]bool{}
		for gx := rlo[0]; gx < rhi[0]; gx++ {
			wx := wrapIdx(gx, n)
			if wx < p.xLo || wx >= p.xHi {
				continue
			}
			for gy := rlo[1]; gy < rhi[1]; gy++ {
				wy := wrapIdx(gy, n)
				for gz := rlo[2]; gz < rhi[2]; gz++ {
					wz := wrapIdx(gz, n)
					flat := (wx*n+wy)*n + wz
					if seen[flat] {
						continue
					}
					seen[flat] = true
					li := (wx-p.xLo)*n*n + wy*n + wz
					retFlat[r] = append(retFlat[r], int32(flat))
					retLoc[r] = append(retLoc[r], int32(li))
				}
			}
		}
	}
	return retFlat, retLoc
}

// refRecvPlan is the receive-side scatter plan as the map-based code built
// it: a flat → grown-block cells map filled by a scan of the block. Entry e
// of sender sr fills the cells recvIdx[sr][recvOff[sr][e]:recvOff[sr][e+1]].
func refRecvPlan(p *farPlan, recv [][]float64, n int) (recvOff, recvIdx [][]int32) {
	cellOf := map[int32][]int32{}
	for gx := 0; gx < p.bx; gx++ {
		wx := wrapIdx(p.lo[0]+gx, n)
		for gy := 0; gy < p.by; gy++ {
			wy := wrapIdx(p.lo[1]+gy, n)
			for gz := 0; gz < p.bz; gz++ {
				wz := wrapIdx(p.lo[2]+gz, n)
				flat := int32((wx*n+wy)*n + wz)
				cellOf[flat] = append(cellOf[flat], int32((gx*p.by+gy)*p.bz+gz))
			}
		}
	}
	recvOff, recvIdx = make([][]int32, len(recv)), make([][]int32, len(recv))
	for sr, blk := range recv {
		cnt := len(blk) / 5
		off := make([]int32, cnt+1)
		var idx []int32
		for e := 0; e < cnt; e++ {
			idx = append(idx, cellOf[int32(blk[5*e])]...)
			off[e+1] = int32(len(idx))
		}
		recvOff[sr], recvIdx[sr] = off, idx
	}
	return recvOff, recvIdx
}

func sameLists(a, b [][]int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d lists, reference %d", len(a), len(b))
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return fmt.Errorf("list %d: %d entries, reference %d", r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				return fmt.Errorf("list %d entry %d: %d, reference %d", r, i, a[r][i], b[r][i])
			}
		}
	}
	return nil
}

// refCellMap is the cell map as refRecvPlan's scatter lists define it: every
// entry serves the cells its list names, later entries overwriting earlier
// ones (the dense scatter's order); cells no list names stay {-1, -1}.
func refCellMap(p *farPlan, recv [][]float64, n int) []recvCell {
	off, idx := refRecvPlan(p, recv, n)
	cells := make([]recvCell, p.bx*p.by*p.bz)
	for k := range cells {
		cells[k] = recvCell{-1, -1}
	}
	for sr := range recv {
		for e := 0; e+1 < len(off[sr]); e++ {
			for _, k := range idx[sr][off[sr][e]:off[sr][e+1]] {
				cells[k] = recvCell{src: int32(sr), off: int32(5*e + 1)}
			}
		}
	}
	return cells
}

// flatOnlyReturn is the return exchange carrying only the flat of each
// entry, as the plan emits them.
func flatOnlyReturn(c *vmpi.Comm, p *farPlan) [][]float64 {
	parts := make([][]float64, c.Size())
	for r, flats := range p.retFlat {
		for _, flat := range flats {
			parts[r] = append(parts[r], float64(flat), 0, 0, 0, 0)
		}
	}
	return vmpi.Alltoall(c, parts)
}

// TestFarPlanMatchesMapReference pins the index-arithmetic plan builders to
// the map-based ones entry for entry. The plan order is the payload order of
// the return exchange, and the cell map must name, for every cell of the
// interpolation block, the entry the map-based scatter would have written it
// from. One rank makes every region wider than the mesh (each point wraps
// onto several cells); 2, 4 and 8 ranks split one, two and three dimensions.
func TestFarPlanMatchesMapReference(t *testing.T) {
	sys := particle.SilicaMelt(200, 8, true, 5)
	for _, ranks := range []int{1, 2, 4, 8} {
		vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
			l := particle.Distribute(c, sys, particle.DistRandom, 99)
			s := New(c, sys.Box, 1e-3)
			in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1}
			if err := s.Tune(in); err != nil {
				t.Errorf("tune: %v", err)
				return
			}
			p := s.buildFarPlan()
			wantFlat, wantLoc := refRetPlan(s, p)
			if err := sameLists(p.retFlat, wantFlat); err != nil {
				t.Errorf("%d ranks, rank %d retFlat: %v", ranks, c.Rank(), err)
			}
			if err := sameLists(p.retLoc, wantLoc); err != nil {
				t.Errorf("%d ranks, rank %d retLoc: %v", ranks, c.Rank(), err)
			}
			recv := flatOnlyReturn(c, p)
			p.buildCellMap(recv, s.Mesh)
			want := refCellMap(p, recv, s.Mesh)
			for k := range want {
				if want[k].src < 0 {
					t.Errorf("%d ranks, rank %d: the reference leaves cell %d uncovered", ranks, c.Rank(), k)
					break
				}
				if p.cells[k] != want[k] {
					t.Errorf("%d ranks, rank %d cell %d: %+v, reference %+v", ranks, c.Rank(), k, p.cells[k], want[k])
					break
				}
			}
		})
	}
}

// TestCellMapRejectsBrokenExchange feeds buildCellMap a return exchange in
// which one entry's flat is moved to its neighbour's: the neighbour's cells
// are served twice and the moved entry's never. Both points have the same
// number of images in the block, so the number of cell assignments still
// equals the block size: only a per-cell check catches the exchange.
func TestCellMapRejectsBrokenExchange(t *testing.T) {
	sys := particle.SilicaMelt(200, 8, true, 5)
	for _, ranks := range []int{1, 8} {
		vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
			l := particle.Distribute(c, sys, particle.DistRandom, 99)
			s := New(c, sys.Box, 1e-3)
			in := api.Input{N: l.N, Cap: l.Cap, Pos: l.ActivePos(), Q: l.ActiveQ(), MaxMove: -1}
			if err := s.Tune(in); err != nil {
				t.Errorf("tune: %v", err)
				return
			}
			p := s.buildFarPlan()
			recv := flatOnlyReturn(c, p)
			sr := 0
			for len(recv[sr]) < 10 {
				sr++
			}
			recv[sr][0] = recv[sr][5]
			_, idx := refRecvPlan(p, recv, s.Mesh)
			assigned := 0
			for _, l := range idx {
				assigned += len(l)
			}
			if assigned != p.bx*p.by*p.bz {
				t.Errorf("%d ranks, rank %d: %d cell assignments for a block of %d cells; the fixture no longer hides the fault from a count",
					ranks, c.Rank(), assigned, p.bx*p.by*p.bz)
			}
			defer func() {
				if recover() == nil {
					t.Errorf("%d ranks, rank %d: a cell served twice and one never did not panic", ranks, c.Rank())
				}
			}()
			p.buildCellMap(recv, s.Mesh)
		})
	}
}
