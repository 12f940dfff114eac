package vmpi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/obs"
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

// TestResizeKeepsMaxExchangeBytes: the staging budget is the machine's, so
// every rank reads the configured value before and after a grow, the
// admitted rank included, and budgeted plans stay collective-symmetric.
func TestResizeKeepsMaxExchangeBytes(t *testing.T) {
	const budget = 512
	st := Run(Config{Ranks: 2, MaxRanks: 3, MaxExchangeBytes: budget}, func(c *Comm) {
		var reads []int64
		if c.JoinEpoch() == 0 {
			reads = append(reads, c.MaxExchangeBytes())
			c = Resize(c, 3)
		}
		c.SetResult(append(reads, c.MaxExchangeBytes()))
	})
	want := []any{[]int64{budget, budget}, []int64{budget, budget}, []int64{budget}}
	if !reflect.DeepEqual(st.Values, want) {
		t.Fatalf("MaxExchangeBytes per instance = %v, want %v", st.Values, want)
	}
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
		if !reflect.DeepEqual(got.Events.ByRank, ref.Events.ByRank) {
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

// resizePin is one traced grow-then-shrink run's virtual footprint: the
// world's message and byte totals, and every instance's final clock bits and
// event-list hash.
type resizePin struct {
	torus      bool
	p          int
	msgs, byts int64
	clocks     []uint64
	events     []uint64
}

func (p resizePin) String() string {
	return fmt.Sprintf("{%v, %d, %d, %d, %#v, %#v},", p.torus, p.p, p.msgs, p.byts, p.clocks, p.events)
}

// eventHash is FNV-1a over every field of an event list.
func eventHash(evs []obs.Event) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range evs {
		put(uint64(e.Kind))
		put(uint64(e.Rank))
		put(uint64(len(e.Name)))
		h.Write([]byte(e.Name))
		put(uint64(e.Peer))
		put(uint64(e.Tag))
		put(uint64(e.Bytes))
		put(math.Float64bits(e.T))
		put(math.Float64bits(e.T2))
		put(math.Float64bits(e.Value))
	}
	return h.Sum64()
}

// TestResizeFootprintPinned runs, traced on both machine models, a grow from
// P to P+3 ranks and a shrink to max(1, P-2), and pins what every rank saw.
// The pins were recorded with this file at the parent of the change that
// made Resize's release one rendezvous generation instead of a
// message-level broadcast, and must not move.
func TestResizeFootprintPinned(t *testing.T) {
	for _, pin := range resizePins {
		model := "switched"
		if pin.torus {
			model = "torus"
		}
		t.Run(fmt.Sprintf("%s/p%d", model, pin.p), func(t *testing.T) {
			cfg := Config{Ranks: pin.p, MaxRanks: pin.p + 3, Trace: true}
			if pin.torus {
				cfg.Model = netmodel.NewTorus(cfg.MaxRanks)
			}
			st := Run(cfg, resizeBody([]int{pin.p + 3, max(1, pin.p-2)}, nil))
			got := resizePin{pin.torus, pin.p, st.TotalMessages(), st.TotalBytes(), nil, nil}
			for i, clock := range st.Clocks {
				got.clocks = append(got.clocks, math.Float64bits(clock))
				got.events = append(got.events, eventHash(st.Events.ByRank[i]))
			}
			if !reflect.DeepEqual(got, pin) {
				t.Errorf("virtual footprint moved:\n got %v\nwant %v", got, pin)
			}
		})
	}
}

var resizePins = []resizePin{
	{false, 1, 35, 192, []uint64{0x3f0c5fdd0a5ca547, 0x3f0d517491cd4771, 0x3f0d517491cd4771, 0x3f0ec943d6439907}, []uint64{0xd1d8031b1260c933, 0xa4a967cd42c1890d, 0x39cc56ecde257f7, 0xbbaa5b194619b174}},
	{false, 2, 62, 320, []uint64{0x3f158d6c1ff4f919, 0x3f160637e3ad4a2e, 0x3f160637e3ad4a2e, 0x3f16c21f85e872f9, 0x3f15ddf3f7c52f28}, []uint64{0xd3cde615e4eaa20a, 0x4a6245d334a1e460, 0xcaea2a5f1318ab7e, 0xbbed678952d05a7b, 0x690b73a37a94cb7f}},
	{false, 3, 87, 448, []uint64{0x3f181a869c9a5d8b, 0x3f1893526052aea0, 0x3f1893526052aea0, 0x3f194f3a028dd76b, 0x3f187f306a5ea11d, 0x3f193b180c99c9e8}, []uint64{0xabf93500f40cfb2b, 0xe73ef6171381da9, 0x3e2cf400f895595c, 0xbe917efcb34af6f1, 0xd604bc5a9ec8982d, 0x74d621973b7274d6}},
	{false, 5, 142, 736, []uint64{0x3f236b6cb58ae6c8, 0x3f23c96086a87b2e, 0x3f23bf0ad37ed3d1, 0x3f22e7c1ce49ad20, 0x3f2289cdfd2c18ba, 0x3f22e7c1ce49ad20, 0x3f22e7c1ce49ad20, 0x3f2345b59f674186}, []uint64{0x4c94f993bd182dd8, 0x5c608b8b0f5f3292, 0x1fa6face00ca567, 0x4ada6a2a64fe715b, 0xc71fcf94dea2598f, 0x8cbc117cd85a9e2e, 0x88ebbae10f9a78eb, 0x1e2e1419740108a}},
	{false, 8, 231, 1168, []uint64{0x3f29bfb37881b5bf, 0x3f2a1da7499f4a25, 0x3f2a1da7499f4a25, 0x3f2a7b9b1abcde8b, 0x3f2a13519675a2c8, 0x3f2a71456793372e, 0x3f2806cbbaedc0ff, 0x3f2864bf8c0b5565, 0x3f279ec6eed625d7, 0x3f27fcbabff3ba3d, 0x3f27f2a9c4f9b37b}, []uint64{0x9e010085d7e27a0b, 0xa96813cb144788df, 0x39b89c15d524a245, 0x1996af9066260374, 0x28c39c4dbed13178, 0xded7e2b50cf492e8, 0x853db73aeccf2f3, 0xf4b036b744060393, 0xa7399314ed6b449d, 0x7a27c5a00909ec2a, 0xa28ddf427e8aa768}},
	{true, 1, 35, 192, []uint64{0x3effa2292c968361, 0x3effd7d911cbfcc0, 0x3effd7d911cbfcc0, 0x3f008cfc38866a7c}, []uint64{0x77000cfbb6c2f4bf, 0xa840a0b62f24e922, 0xba0b2c641d602f54, 0xed2ffb7dd6e571d8}},
	{true, 2, 62, 320, []uint64{0x3f07fa94fe76b55f, 0x3f08156cf111720f, 0x3f08156cf111720f, 0x3f08b67ca0b1de2b, 0x3f07c4e519413c01}, []uint64{0x84ff1baab9ed4dea, 0xc3bcf34557dae3bf, 0x1d6500d4d8ca052b, 0x379053b5899daca3, 0x240fc4fc68de962c}},
	{true, 3, 87, 448, []uint64{0x3f0b674ace15b354, 0x3f0b8222c0b07004, 0x3f0b8222c0b07004, 0x3f0c23327050dc20, 0x3f0b59ded4c854fd, 0x3f0bfaee8468c119}, []uint64{0x71aa8e4760cdc567, 0xf3ee4e4119279bc7, 0x38d0d7b8ac3641c2, 0x921ea6f8a127717f, 0x663d3aa38997bb0e, 0xca193f92dcbc1907}},
	{true, 5, 142, 736, []uint64{0x3f155845ab1ec0f1, 0x3f15a888cabf5663, 0x3f1593dd646c07a9, 0x3f14513494cbee3b, 0x3f1400acbcfbb82e, 0x3f14513494cbee3b, 0x3f14513494cbee3b, 0x3f14a1bc6c9c2448}, []uint64{0x522d4f2aae9d258c, 0x235f83bede5b908e, 0x4d099ff383a0a9f4, 0x7013eb06551487b9, 0x8b2b6f08420d0316, 0x3f046dc30c85259, 0x44efa71213f6d9cd, 0xd23f77946b1e5ee}},
	{true, 8, 231, 1168, []uint64{0x3f1cef353db5a93d, 0x3f1d3f785d563eaf, 0x3f1d3f785d563eaf, 0x3f1d8fbb7cf6d421, 0x3f1d2accf702eff5, 0x3f1d7b1016a38567, 0x3f1a54aec7c2e672, 0x3f1aa5369f931c7f, 0x3f19f6baf6a5520e, 0x3f1a4742ce75881b, 0x3f1a3320d8817a98}, []uint64{0xd7423aeb191b6a2b, 0x5df87ebdee6c337a, 0x55e52c6df74d1602, 0xf42d36688d5f7ef7, 0x6a88b81e51215822, 0x681672c133c96cd, 0xfd38b889d1425c20, 0x6b3c29abecc31cbf, 0xc40c165102d58c5e, 0xa42945904d80e535, 0x6b27f6e80587f255}},
}
