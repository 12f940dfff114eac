package vmpi

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/netmodel"
)

// Elastic-world coverage: grow, shrink, epoch bookkeeping, run-slot
// equivalence, determinism, and misuse panics.

// resizeBody builds a rank body that runs one allreduce stage per schedule
// entry and resizes the world to that entry's size afterwards. Ranks
// admitted by a grow re-enter the body with a non-zero JoinEpoch and skip
// the stages that happened before they existed — the canonical elastic
// program shape.
func resizeBody(schedule []int, record func(c *Comm, stage int, sum int64)) func(c *Comm) {
	return func(c *Comm) {
		for stage := c.JoinEpoch(); ; stage++ {
			c.Compute(float64(c.Rank()+1) * 1e-6)
			sum := AllreduceVal(c, int64(c.Rank()), Sum[int64])
			if record != nil {
				record(c, stage, sum)
			}
			if stage == len(schedule) {
				c.SetResult(sum)
				return
			}
			if c = Resize(c, schedule[stage]); c == nil {
				return
			}
		}
	}
}

func TestResizeShrink(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		st := Run(Config{Ranks: 8}, resizeBody([]int{4}, nil))
		if st.Epochs != 2 || st.FinalSize != 4 {
			t.Fatalf("epochs %d finalSize %d, want 2 and 4", st.Epochs, st.FinalSize)
		}
		if len(st.Clocks) != 8 {
			t.Fatalf("got %d instances, want 8", len(st.Clocks))
		}
		for i := 0; i < 8; i++ {
			retired := i >= 4
			if got := st.Retire[i] >= 0; got != retired {
				t.Errorf("instance %d: retire time %g, retired=%v", i, st.Retire[i], retired)
			}
			if retired && st.Values[i] != nil {
				t.Errorf("retired instance %d has a result", i)
			}
		}
		// The survivors' final stage is an allreduce over the 4-rank
		// world: 0+1+2+3.
		for i := 0; i < 4; i++ {
			if st.Values[i] != int64(6) {
				t.Errorf("survivor %d result %v, want 6", i, st.Values[i])
			}
		}
	})
}

func TestResizeGrow(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		st := Run(Config{Ranks: 4, MaxRanks: 8}, resizeBody([]int{8}, nil))
		if st.Epochs != 2 || st.FinalSize != 8 {
			t.Fatalf("epochs %d finalSize %d, want 2 and 8", st.Epochs, st.FinalSize)
		}
		if len(st.Clocks) != 8 {
			t.Fatalf("got %d instances, want 8", len(st.Clocks))
		}
		for i := 4; i < 8; i++ {
			if st.JoinEpoch[i] != 1 {
				t.Errorf("admitted instance %d joinEpoch %d, want 1", i, st.JoinEpoch[i])
			}
			if st.Admit[i] <= 0 {
				t.Errorf("admitted instance %d admit time %g, want > 0", i, st.Admit[i])
			}
		}
		// Every final rank computed the 8-rank allreduce: 0+..+7.
		for i := 0; i < 8; i++ {
			if st.Values[i] != int64(28) {
				t.Errorf("instance %d result %v, want 28", i, st.Values[i])
			}
		}
	})
}

func TestResizeGrowShrinkCycle(t *testing.T) {
	// 8 -> 4 -> 8 -> 2: the regrow admits fresh instances (ids 8..11) on
	// the freed node positions; the final shrink retires everyone above
	// rank 1.
	t.Run("event", func(t *testing.T) {
		st := Run(Config{Ranks: 8, MaxRanks: 8},
			resizeBody([]int{4, 8, 2}, nil))
		if st.Epochs != 4 || st.FinalSize != 2 {
			t.Fatalf("epochs %d finalSize %d, want 4 and 2", st.Epochs, st.FinalSize)
		}
		if len(st.Clocks) != 12 {
			t.Fatalf("got %d instances, want 12 (8 founders + 4 regrown)", len(st.Clocks))
		}
		for i, wantJoin := range []int{0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2} {
			if st.JoinEpoch[i] != wantJoin {
				t.Errorf("instance %d joinEpoch %d, want %d", i, st.JoinEpoch[i], wantJoin)
			}
		}
		// Final world is instances {0, 1}; everyone else retired.
		for i := 0; i < 12; i++ {
			if (st.Retire[i] >= 0) != (i >= 2) {
				t.Errorf("instance %d retire %g, want retired=%v", i, st.Retire[i], i >= 2)
			}
		}
		for i := 0; i < 2; i++ {
			if st.Values[i] != int64(1) {
				t.Errorf("final rank %d result %v, want 1", i, st.Values[i])
			}
		}
		if ns := st.NodeSeconds(); ns <= 0 {
			t.Errorf("NodeSeconds %g, want > 0", ns)
		}
	})
}

// TestResizeEngineEquivalence sweeps the run-slot count over a resized run:
// admission, retirement, and the traced event log must not depend on it.
func TestResizeEngineEquivalence(t *testing.T) {
	run := func(workers int) *Stats {
		return Run(Config{
			Ranks:    6,
			MaxRanks: 12,
			Model:    netmodel.NewTorus(12),
			Trace:    true,
			Workers:  workers,
		}, resizeBody([]int{3, 12, 5}, func(c *Comm, stage int, sum int64) {
			c.Counter("stage_sum", float64(sum))
		}))
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if !reflect.DeepEqual(got.Clocks, ref.Clocks) {
			t.Errorf("workers=%d: clocks differ:\nworkers=1 %v\nworkers=%d %v", w, ref.Clocks, w, got.Clocks)
		}
		if !reflect.DeepEqual(got.Admit, ref.Admit) || !reflect.DeepEqual(got.Retire, ref.Retire) {
			t.Errorf("workers=%d: admit/retire times differ", w)
		}
		if !reflect.DeepEqual(got.Phases, ref.Phases) {
			t.Errorf("workers=%d: phases differ", w)
		}
		if !reflect.DeepEqual(got.Values, ref.Values) {
			t.Errorf("workers=%d: values differ: %v vs %v", w, got.Values, ref.Values)
		}
		if !reflect.DeepEqual(virtualEvents(got.Events), virtualEvents(ref.Events)) {
			t.Errorf("workers=%d: event logs differ", w)
		}
	}
}

func TestResizeDeterminism(t *testing.T) {
	run := func() *Stats {
		return Run(Config{Ranks: 5, MaxRanks: 9},
			resizeBody([]int{2, 9, 4}, nil))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Clocks, b.Clocks) || !reflect.DeepEqual(a.Values, b.Values) {
		t.Fatalf("resize run is not deterministic")
	}
}

// TestResizeMonotoneClocks checks the epoch anchor: ranks admitted at a
// resize start exactly at t* >= every pre-resize clock, and survivors never
// move backwards.
func TestResizeMonotoneClocks(t *testing.T) {
	st := Run(Config{Ranks: 3, MaxRanks: 6}, func(c *Comm) {
		if c.JoinEpoch() == 0 {
			c.Compute(float64(c.Rank()) * 1e-3)
			pre := c.Time()
			c = Resize(c, 6)
			if c.Time() < pre {
				panic("survivor clock moved backwards")
			}
		} else {
			c.SetResult(c.AdmitTime())
		}
		AllreduceVal(c, 1, Sum[int])
	})
	for r := 3; r < 6; r++ {
		if tStar := st.Values[r].(float64); tStar < 2e-3 {
			t.Fatalf("admitted rank %d started at %g, before the slowest founder's resize entry", r, tStar)
		}
	}
}

func TestResizeSameSizeBumpsEpoch(t *testing.T) {
	st := Run(Config{Ranks: 4}, func(c *Comm) {
		c = Resize(c, 4)
		if c.Epoch() != 1 {
			panic("epoch not bumped")
		}
		AllreduceVal(c, 1, Sum[int])
	})
	if st.Epochs != 2 || st.FinalSize != 4 || len(st.Clocks) != 4 {
		t.Fatalf("epochs %d finalSize %d instances %d", st.Epochs, st.FinalSize, len(st.Clocks))
	}
}

// TestResizeSplitAfter checks that Split works on a post-resize world and
// that survivor/newcomer split contexts agree (splitSeq is reset).
func TestResizeSplitAfter(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		st := Run(Config{Ranks: 2, MaxRanks: 4}, func(c *Comm) {
			if c.JoinEpoch() == 0 {
				// Founders burn a split before the resize; the admitted
				// ranks never see it.
				sub := c.Split(0, c.Rank())
				AllreduceVal(sub, 1, Sum[int])
				c = Resize(c, 4)
			}
			sub := c.Split(c.Rank()%2, c.Rank())
			v := AllreduceVal(sub, int64(1), Sum[int64])
			c.SetResult(v)
		})
		for i, v := range st.Values {
			if v != int64(2) {
				t.Errorf("instance %d split sum %v, want 2", i, v)
			}
		}
	})
}

// TestResizeDeadlockAfterShrink checks the detector stays exact once ranks
// have retired: the survivors deadlock and the dump names only them.
func TestResizeDeadlockAfterShrink(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("expected deadlock panic")
			}
			msg, ok := p.(string)
			if !ok || !strings.Contains(msg, "deadlock") {
				t.Fatalf("unexpected panic: %v", p)
			}
		}()
		Run(Config{Ranks: 4}, func(c *Comm) {
			c = Resize(c, 2)
			if c == nil {
				return
			}
			Recv[int](c, (c.Rank()+1)%2, 99) // nobody sends
		})
	})
}

func TestResizePanics(t *testing.T) {
	expectPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			p := recover()
			if p == nil {
				t.Fatalf("expected panic containing %q", want)
			}
			if msg, ok := p.(string); !ok || !strings.Contains(msg, want) {
				t.Fatalf("panic %v, want substring %q", p, want)
			}
		}()
		f()
	}
	t.Run("beyond max ranks", func(t *testing.T) {
		expectPanic(t, "exceeds MaxRanks", func() {
			Run(Config{Ranks: 2}, func(c *Comm) { Resize(c, 3) })
		})
	})
	t.Run("on split comm", func(t *testing.T) {
		expectPanic(t, "current world communicator", func() {
			Run(Config{Ranks: 2}, func(c *Comm) {
				sub := c.Split(0, c.Rank())
				Resize(sub, 1)
			})
		})
	})
	t.Run("on stale world", func(t *testing.T) {
		expectPanic(t, "current world communicator", func() {
			Run(Config{Ranks: 2}, func(c *Comm) {
				nc := Resize(c, 2)
				Resize(c, 2) // c is the epoch-0 comm, now stale
				_ = nc
			})
		})
	})
	t.Run("size mismatch", func(t *testing.T) {
		expectPanic(t, "size mismatch", func() {
			Run(Config{Ranks: 2}, func(c *Comm) {
				Resize(c, 1+c.Rank()%2)
			})
		})
	})
	t.Run("max ranks below ranks", func(t *testing.T) {
		expectPanic(t, "MaxRanks below Ranks", func() {
			Run(Config{Ranks: 4, MaxRanks: 2}, func(c *Comm) {})
		})
	})
}

// TestResizeObsEvents checks the protocol's observability: phase spans,
// resize counters, and world-size gauges on every participating rank.
func TestResizeObsEvents(t *testing.T) {
	st := Run(Config{Ranks: 4, MaxRanks: 6}, resizeBody([]int{2, 6}, nil))
	if got := st.MaxPhase(PhaseResize); got <= 0 {
		t.Errorf("no %s phase time recorded", PhaseResize)
	}
	if n := st.Events.Counter(CounterResizes); n != 4+2 {
		// 4 founders resize once (epoch 1), the 2 survivors resize again.
		t.Errorf("resize counter sum %g, want 6", n)
	}
}
