package vmpi

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/netmodel"
)

// A rank that never comes leaves the rest parked in the rendezvous; the
// verdict names the collective, how many of how many ranks arrived, and who
// is missing.
func TestRendezvousDeadlockNamesMissingRank(t *testing.T) {
	defer func() {
		const want = "vmpi: deadlock: all ranks blocked in receive or collective:\n" +
			"  3 of 4 ranks parked in Allreduce of []int64, length 1; missing ranks [2]\n"
		if p := recover(); p != want {
			t.Fatalf("deadlock panic:\n%v\nwant:\n%s", p, want)
		}
	}()
	Run(Config{Ranks: 4}, func(c *Comm) {
		if c.Rank() == 2 {
			return // skips the Allreduce
		}
		//parlint:allow collsym -- rank 2 skips this Allreduce on purpose
		Allreduce(c, []int64{1}, Sum[int64])
	})
}

// Ranks of one communicator that enter different collectives, element
// types, Allreduce lengths, AlltoallLinear tags, or Replay ops or state
// types get a panic naming both sides instead of a hang. One run slot makes rank 0 arrive first.
func TestCollectiveMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(c *Comm)
		want string
	}{
		{"barrier-allreduce", func(c *Comm) {
			if c.Rank() == 0 {
				Barrier(c) //parlint:allow collsym -- the mismatch under test
			} else {
				AllreduceVal(c, 1, Sum[int]) //parlint:allow collsym -- the mismatch under test
			}
		}, "rank 0 entered Barrier, rank 1 entered Allreduce of []int, length 1"},
		{"length", func(c *Comm) {
			Allreduce(c, make([]float64, 2+c.Rank()), Sum[float64])
		}, "rank 0 entered Allreduce of []float64, length 2, rank 1 entered Allreduce of []float64, length 3"},
		{"type", func(c *Comm) {
			if c.Rank() == 0 {
				Allgather(c, []int32{1}) //parlint:allow collsym -- the mismatch under test
			} else {
				Allgather(c, []int64{1}) //parlint:allow collsym -- the mismatch under test
			}
		}, "rank 0 entered Allgather of []int32, rank 1 entered Allgather of []int64"},
		{"tag", func(c *Comm) {
			AlltoallLinear(c, make([][]byte, 2), 5+c.Rank())
		}, "rank 0 entered AlltoallLinear of []uint8, tag 5, rank 1 entered AlltoallLinear of []uint8, tag 6"},
		{"replay-op", func(c *Comm) {
			v := c.Rank()
			Replay(c, [2]string{"ring", "tree"}[v], &v, func(*Replayer, []*int) {})
		}, "rank 0 entered ring with state int, rank 1 entered tree with state int"},
		{"replay-state", func(c *Comm) {
			if v := c.Rank(); v == 0 {
				Replay(c, "ring", &v, func(*Replayer, []*int) {}) //parlint:allow collsym -- the mismatch under test
			} else {
				w := int32(v)
				Replay(c, "ring", &w, func(*Replayer, []*int32) {}) //parlint:allow collsym -- the mismatch under test
			}
		}, "rank 0 entered ring with state int, rank 1 entered ring with state int32"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				want := "vmpi: collective mismatch on a 2-rank communicator: " + tc.want
				if p := recover(); p != want {
					t.Fatalf("panic %v, want %q", p, want)
				}
			}()
			Run(Config{Ranks: 2, Workers: 1}, tc.body)
		})
	}
}

// TestRendezvousGenerationReuse runs 200 back-to-back collectives of all
// eight kinds — AlltoallLinear on two tags — and Replays on the world, a
// Split and a Dup communicator, with a Resize halfway. Skewed compute lets
// fast ranks enter the next generation of a communicator while slow ones
// are still waking from the last; with several run slots they really do run
// at once. Stats must not depend on it.
func TestRendezvousGenerationReuse(t *testing.T) {
	const calls, grown = 200, 11
	body := func(c *Comm) {
		k := 0
		if c.JoinEpoch() > 0 {
			k = calls / 2 // admitted by the Resize below
		}
		var sub, dup *Comm
		digest := uint64(0)
		for ; k < calls; k++ {
			if k == calls/2 && c.JoinEpoch() == 0 {
				if c = Resize(c, grown); c == nil {
					return
				}
			}
			if k == 0 || k == calls/2 {
				sub, dup = c.Split(c.Rank()%3, -c.Rank()), c.Dup()
			}
			me := c.Rank()
			c.Compute(float64(fuzzMix(uint64(k), uint64(me), 4)%16) * 1e-6)
			cc := [3]*Comm{c, sub, dup}[fuzzMix(uint64(k), 5, 6)%3]
			switch k % 8 {
			case 0:
				Barrier(cc)
				v := uint64(me + k)
				Replay(cc, "ring", &v, func(h *Replayer, states []*uint64) {
					p := len(states)
					arrive := make([]float64, p)
					for r := range states {
						h.Compute(r, float64(*states[r]%5)*1e-7)
						arrive[r] = h.Send(r, (r+1)%p, 8, 300)
					}
					for r := range states {
						h.Recv(r, (r+1)%p, 8, arrive[r])
						*states[r] += *states[(r+p-1)%p]
					}
				})
				digest = fuzzMix(digest, v, 7)
			case 1:
				digest = fuzzMix(digest, uint64(AllreduceVal(cc, int64(me+k), Sum[int64])), 0)
				digest = fuzzDigest(digest, Exscan(cc, []float64{fuzzFloat(k, me, 0), fuzzFloat(k, me, 1)}, Sum[float64]))
			case 2:
				digest = fuzzDigest(digest, Allgather(cc, fuzzBlock(k, me, k%5)))
			case 3:
				for _, b := range AllgatherBlocks(cc, fuzzBlock(k, me, (k+me)%40)) {
					digest = fuzzDigest(digest, b)
				}
			default:
				parts := make([][]uint32, cc.Size())
				for d := range parts {
					parts[d] = fuzzBlock(k, me*64+d, (k+d)%9)
				}
				f := Alltoall[uint32]
				switch k % 8 {
				case 5:
					f = AlltoallOwned[uint32]
				case 6, 7:
					f = func(c *Comm, parts [][]uint32) [][]uint32 { return AlltoallLinear(c, parts, 200+k%8) }
				}
				for _, b := range f(cc, parts) {
					digest = fuzzDigest(digest, b)
				}
			}
		}
		c.SetResult(digest)
	}
	run := func(workers int) *Stats {
		st := Run(Config{Ranks: 8, MaxRanks: grown, Workers: workers}, body)
		st.Exec = nil // host-domain meters
		return st
	}
	ref := run(1)
	for _, w := range []int{2, 4, 0} { // 0: one base slot plus the host budget
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: Stats differ from workers=1:\n got %+v\nwant %+v", w, got, ref)
		}
	}
	if ref.FinalSize != grown || ref.Values[grown-1] == nil {
		t.Fatalf("final size %d, admitted rank's result %v: the Resize did not take", ref.FinalSize, ref.Values[grown-1])
	}
}

// A Replay that computes, then charges an Allgather through its Replayer,
// twice, charges every rank exactly what computing and calling Allgather
// twice does — on both sides of the ring/tree switch and on both models:
// clock bits, messages, bytes and traced events, each allgather's spans
// starting where it starts, not at the Replay's entry.
func TestReplayerAllgatherMatchesAllgather(t *testing.T) {
	compute := func(k, r int) float64 { return float64(fuzzMix(uint64(k), uint64(r), 8)%9) * 1e-7 }
	size := func(k, r int) int { return int(fuzzMix(uint64(k), uint64(r), 9) % 40) }
	for _, p := range []int{1, 2, 5, 32, 33, 100} {
		for _, torus := range []bool{false, true} {
			cfg := Config{Ranks: p, Trace: true}
			if torus {
				cfg.Model = netmodel.NewTorus(p)
			}
			want := Run(cfg, func(c *Comm) {
				for k := 0; k < 2; k++ {
					c.Compute(compute(k, c.Rank()))
					Release(Allgather(c, fuzzBlock(k, c.Rank(), size(k, c.Rank()))))
				}
			})
			got := Run(cfg, func(c *Comm) {
				v := c.Rank()
				Replay(c, "allgathers", &v, func(h *Replayer, states []*int) {
					for k := 0; k < 2; k++ {
						for r := range states {
							h.Compute(r, compute(k, r))
						}
						h.Allgather(func(r int) int { return 4 * size(k, r) })
					}
				})
			})
			gotEvs, wantEvs := virtualEvents(got.Events), virtualEvents(want.Events)
			for r := 0; r < p; r++ {
				for _, c := range []struct {
					what      string
					got, want any
				}{
					{"clock bits", math.Float64bits(got.Clocks[r]), math.Float64bits(want.Clocks[r])},
					{"messages", got.MessagesSent[r], want.MessagesSent[r]},
					{"bytes", got.BytesSent[r], want.BytesSent[r]},
					{"events", gotEvs[r], wantEvs[r]},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Fatalf("%d ranks, torus %v, rank %d: %s differ from two Allgathers:\n got %v\nwant %v", p, torus, r, c.what, c.got, c.want)
					}
				}
			}
		}
	}
}

// The linear replay keeps O(P) scratch — one clock per rank, not one arrival
// per message — at 2048 ranks: the call a budgeted dense redist.Execute
// makes, with the empty parts of a rank that routes nothing.
func TestAlltoallLinearScratchIsLinear(t *testing.T) {
	if raceEnabled || DebugEnabled() {
		t.Skip("2048² part headers under instrumentation")
	}
	const p = 2048
	empty := make([][]byte, p) // read-only, shared by every rank
	st := Run(Config{Ranks: p, Workers: 1}, func(c *Comm) {
		AlltoallLinear(c, empty, 221)
		if g := c.meeting(); c.Rank() == 0 {
			c.SetResult(cap(g.arrive) + cap(g.offs))
		}
	})
	if got := st.Values[0].(int); got > 2*p {
		t.Fatalf("rendezvous scratch holds %d elements after a %d-rank AlltoallLinear, want at most %d", got, p, 2*p)
	}
}
