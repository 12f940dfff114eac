package coupling

import (
	"testing"

	"repro/internal/api"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// fakeRec is a minimal origin-tagged record for exercising the pipeline
// without a real solver.
type fakeRec struct {
	Origin     redist.Index
	X, Y, Z, Q float64
}

// fakeMethod shifts every record to the next rank in Exchange (so restore
// and resort really route across processes), adds one ghost duplicate per
// rank, and computes pot = 2q, field = (x, y, z).
type fakeMethod struct {
	c *vmpi.Comm
	// threshold is the movement bound returned by MoveThreshold.
	threshold float64
	// fastSeen records the fast flag of every Exchange call.
	fastSeen []bool
}

func (m *fakeMethod) Decompose(in api.Input) []fakeRec {
	recs := make([]fakeRec, in.N, in.N+1)
	for i := range recs {
		recs[i] = fakeRec{
			Origin: redist.MakeIndex(m.c.Rank(), i),
			X:      in.Pos[3*i], Y: in.Pos[3*i+1], Z: in.Pos[3*i+2],
			Q: in.Q[i],
		}
	}
	return append(recs, fakeRec{Origin: redist.Invalid})
}

func (m *fakeMethod) MoveThreshold() float64 { return m.threshold }

func (m *fakeMethod) Exchange(recs []fakeRec, fast bool) ([]fakeRec, ExchangeInfo) {
	m.fastSeen = append(m.fastSeen, fast)
	next := (m.c.Rank() + 1) % m.c.Size()
	pl := redist.NewPlan(m.c, len(recs), redist.ToRank(func(int) int { return next }), redist.Options{})
	recv := redist.Execute(pl, recs)
	pl.Free()
	info := ExchangeInfo{Strategy: api.StrategyAlltoall}
	if fast {
		info.Strategy = api.StrategyNeighborhood
	}
	return recv, info
}

func (m *fakeMethod) Compute(recv []fakeRec) ([]fakeRec, []float64, []float64) {
	var own []fakeRec
	for _, r := range recv {
		if r.Origin.Valid() {
			own = append(own, r)
		}
	}
	pot := make([]float64, len(own))
	field := make([]float64, 3*len(own))
	for i, r := range own {
		pot[i] = 2 * r.Q
		field[3*i], field[3*i+1], field[3*i+2] = r.X, r.Y, r.Z
	}
	return own, pot, field
}

func (m *fakeMethod) Origin(r fakeRec) redist.Index { return r.Origin }

func (m *fakeMethod) PosQ(r fakeRec) (x, y, z, q float64) { return r.X, r.Y, r.Z, r.Q }

var _ Method[fakeRec] = (*fakeMethod)(nil)

// input builds a per-rank input of n particles with rank-distinct charges.
func input(c *vmpi.Comm, n, capacity int, maxMove float64, resort bool) api.Input {
	pos := make([]float64, 3*n)
	q := make([]float64, n)
	for i := 0; i < n; i++ {
		pos[3*i] = float64(c.Rank()*n + i)
		q[i] = float64(c.Rank()*n + i + 1)
	}
	return api.Input{N: n, Cap: capacity, Pos: pos, Q: q, MaxMove: maxMove, Resort: resort}
}

func TestPipelineMethodARestores(t *testing.T) {
	const ranks, n = 3, 4
	vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		m := &fakeMethod{c: c, threshold: 1}
		p := New(c, m)
		in := input(c, n, n, -1, false)
		out, err := p.Run(in)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if out.Resorted || out.N != n {
			t.Errorf("rank %d: method A output Resorted=%v N=%d", c.Rank(), out.Resorted, out.N)
		}
		// Restore must deliver each particle's results at its original
		// position despite the exchange shifting everything one rank over.
		for i := 0; i < n; i++ {
			if want := 2 * in.Q[i]; out.Pot[i] != want {
				t.Errorf("rank %d: Pot[%d] = %v, want %v", c.Rank(), i, out.Pot[i], want)
			}
			if out.Field[3*i] != in.Pos[3*i] {
				t.Errorf("rank %d: Field[%d] = %v, want %v", c.Rank(), 3*i, out.Field[3*i], in.Pos[3*i])
			}
		}
		st := p.LastStats()
		if st.Strategy != api.StrategyAlltoall || st.FastPath {
			t.Errorf("rank %d: stats strategy %q fast %v", c.Rank(), st.Strategy, st.FastPath)
		}
		// Everything arrived from the previous rank plus one ghost.
		if st.Moved != n || st.Kept != 0 || st.Ghosts != 1 {
			t.Errorf("rank %d: moved/kept/ghosts = %d/%d/%d, want %d/0/1",
				c.Rank(), st.Moved, st.Kept, st.Ghosts, n)
		}
	})
}

func TestPipelineMethodBResortIndices(t *testing.T) {
	const ranks, n = 2, 3
	vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		m := &fakeMethod{c: c, threshold: 1}
		p := New(c, m)
		out, err := p.Run(input(c, n, n, -1, true))
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !out.Resorted || out.N != n || len(out.Indices) != n {
			t.Errorf("rank %d: Resorted=%v N=%d indices=%d", c.Rank(), out.Resorted, out.N, len(out.Indices))
			return
		}
		// With the shift-by-one exchange, original particle i of this rank
		// now lives at position i of the next rank.
		next := (c.Rank() + 1) % ranks
		for i, idx := range out.Indices {
			if idx.Rank() != next || idx.Pos() != i {
				t.Errorf("rank %d: Indices[%d] = (%d,%d), want (%d,%d)",
					c.Rank(), i, idx.Rank(), idx.Pos(), next, i)
			}
		}
		if st := p.LastStats(); !st.Resorted || st.CapacityFallback {
			t.Errorf("rank %d: stats %+v", c.Rank(), st)
		}
	})
}

// TestCapacityFallbackResetsSteadyState is the §III-B contract around the
// capacity fallback: when method B cannot return the changed order (some
// process's arrays are too small), the pipeline restores the original order
// AND forgets the steady state — the next run must not take the fast
// (merge-sort / neighborhood) path, because its input is no longer in
// solver order.
func TestCapacityFallbackResetsSteadyState(t *testing.T) {
	const ranks, n = 2, 4
	vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		m := &fakeMethod{c: c, threshold: 1}
		p := New(c, m)

		// Run 1: method B succeeds — establishes the steady state.
		if out, err := p.Run(input(c, n, n, -1, true)); err != nil || !out.Resorted {
			t.Errorf("rank %d run 1: err=%v resorted=%v", c.Rank(), err, out.Resorted)
			return
		}

		// Run 2: capacity too small — method B falls back to restoring.
		out, err := p.Run(input(c, n, n-1, 0, true))
		if err != nil {
			t.Errorf("rank %d run 2: %v", c.Rank(), err)
			return
		}
		st := p.LastStats()
		if out.Resorted || !st.CapacityFallback || st.Resorted {
			t.Errorf("rank %d run 2: resorted=%v stats=%+v", c.Rank(), out.Resorted, st)
		}
		if !st.FastPath {
			t.Errorf("rank %d run 2: expected fast path (steady state + zero movement)", c.Rank())
		}

		// Run 3: zero movement, but the fallback must have reset the steady
		// state — the fast path must NOT be taken.
		if out, err := p.Run(input(c, n, n, 0, true)); err != nil || !out.Resorted {
			t.Errorf("rank %d run 3: err=%v resorted=%v", c.Rank(), err, out.Resorted)
			return
		}
		if st := p.LastStats(); st.FastPath {
			t.Errorf("rank %d run 3: fast path taken after capacity fallback", c.Rank())
		}

		// Run 4: run 3 re-established the steady state, so now the fast path
		// applies again.
		if _, err := p.Run(input(c, n, n, 0, true)); err != nil {
			t.Errorf("rank %d run 4: %v", c.Rank(), err)
			return
		}
		if st := p.LastStats(); !st.FastPath || st.Strategy != api.StrategyNeighborhood {
			t.Errorf("rank %d run 4: stats %+v, want fast neighborhood", c.Rank(), st)
		}
		if want := []bool{false, true, false, true}; len(m.fastSeen) != len(want) {
			t.Errorf("rank %d: %d exchanges, want %d", c.Rank(), len(m.fastSeen), len(want))
		} else {
			for i, f := range want {
				if m.fastSeen[i] != f {
					t.Errorf("rank %d: exchange %d fast=%v, want %v", c.Rank(), i, m.fastSeen[i], f)
				}
			}
		}
	})
}

// TestResetForgetsSteadyState covers the explicit Reset (re-tuning): after
// a successful method B run, Reset must force the next run back onto the
// general exchange strategy.
func TestResetForgetsSteadyState(t *testing.T) {
	const ranks, n = 2, 3
	vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		m := &fakeMethod{c: c, threshold: 1}
		p := New(c, m)
		if _, err := p.Run(input(c, n, n, -1, true)); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		p.Reset()
		if _, err := p.Run(input(c, n, n, 0, true)); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if st := p.LastStats(); st.FastPath {
			t.Errorf("rank %d: fast path taken after Reset", c.Rank())
		}
	})
}

// TestMethodAClearsSteadyState: a method A run returns the original order,
// so a following run's input is not in solver order even if an earlier
// method B run was.
func TestMethodAClearsSteadyState(t *testing.T) {
	const ranks, n = 2, 3
	vmpi.Run(vmpi.Config{Ranks: ranks}, func(c *vmpi.Comm) {
		m := &fakeMethod{c: c, threshold: 1}
		p := New(c, m)
		if _, err := p.Run(input(c, n, n, -1, true)); err != nil { // B: steady
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if _, err := p.Run(input(c, n, n, 0, false)); err != nil { // A: fast, then clears
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if st := p.LastStats(); !st.FastPath {
			t.Errorf("rank %d: method A run after steady state should still use the fast path", c.Rank())
		}
		if _, err := p.Run(input(c, n, n, 0, false)); err != nil { // A again: not fast
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if st := p.LastStats(); st.FastPath {
			t.Errorf("rank %d: fast path taken after a method A run", c.Rank())
		}
	})
}
