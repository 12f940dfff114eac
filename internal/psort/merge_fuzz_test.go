package psort

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/vmpi"
)

func fuzzMix(a, b, c uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F ^ c*0x165667B19E3779F9
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	return x ^ x>>29
}

// fuzzInput builds every rank's input from seed. counts picks the per-rank
// counts: 0 uneven (0 … 23), 1 a third of the ranks empty, 2 one heavy rank
// among near-empty ones, 3 four in five ranks empty. keys picks the keys:
// 0 wide, 1 sixteen values (duplicates everywhere), 2 one value, 3 almost
// sorted (the global position plus a small jitter — the method B steady
// state). Val numbers the elements, so equal keys stay told apart.
func fuzzInput(p int, counts, keys byte, seed uint64) [][]rec {
	in := make([][]rec, p)
	heavy := int(seed % uint64(p))
	id := 0
	for r := range in {
		h := fuzzMix(seed, uint64(r), 1)
		n := int(h % 24)
		switch counts {
		case 1:
			if h%3 == 0 {
				n = 0
			} else {
				n = int(h % 40)
			}
		case 2:
			if n = int(h % 4); r == heavy {
				n = 100 + int(h%100)
			}
		case 3:
			if h%5 != 0 {
				n = 0
			} else {
				n = int(h % 30)
			}
		}
		in[r] = make([]rec, n)
		for i := range in[r] {
			k := fuzzMix(seed, uint64(id), 2)
			switch keys {
			case 1:
				k %= 16
			case 2:
				k = 7
			case 3:
				k = uint64(id)*8 + k%24
			}
			in[r][i] = rec{Key: k, Val: int64(id)}
			id++
		}
	}
	return in
}

func virtualEvents(l *obs.Log) [][]obs.Event {
	out := make([][]obs.Event, len(l.ByRank))
	for r, evs := range l.ByRank {
		out[r] = append([]obs.Event(nil), evs...)
		for i := range out[r] {
			out[r][i].WallNS = 0
		}
	}
	return out
}

// FuzzSortMergeMatchesMessageLevel sorts the input a byte string encodes
// twice — with the replayed sort and with its message-level reference:
// SortMerge against refSortMerge, or SortRotational against
// refSortRotational — and compares every rank's final items, clock bits,
// message and byte counts, phase times and, under Trace, its full event
// list; the concatenated output keys must equal sort.SliceStable of the
// concatenated input's. Byte 0 picks the world size, 1 to 40 ranks; byte 1
// the trace flag (bit 0), the torus model (bit 1), four run slots instead
// of one (bit 2), fuzzInput's key shape (bits 3-4), a phase around the sort
// (bit 5), a second sort of the sorted output (bit 6) and the rotational
// sort (bit 7); byte 2 fuzzInput's count shape (bits 0-1); the rest seeds
// the input.
func FuzzSortMergeMatchesMessageLevel(f *testing.F) {
	f.Add([]byte{12, 0x19, 0x01, 0x5a, 0x13})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 3 {
			return
		}
		p := 1 + int(prog[0])%40
		cfg := vmpi.Config{Ranks: p, Trace: prog[1]&1 != 0, Workers: 1 + 3*int(prog[1]>>2&1)}
		if prog[1]&2 != 0 {
			cfg.Model = netmodel.NewTorus(p)
		}
		seed := uint64(0)
		for _, b := range prog[3:min(len(prog), 11)] {
			seed = seed<<8 | uint64(b)
		}
		in := fuzzInput(p, prog[2]&3, prog[1]>>3&3, seed)
		run := func(sortFn func(*vmpi.Comm, []rec, func(rec) uint64) []rec) *vmpi.Stats {
			return vmpi.Run(cfg, func(c *vmpi.Comm) {
				items := append([]rec(nil), in[c.Rank()]...)
				c.Compute(float64(fuzzMix(seed, uint64(c.Rank()), 3)%7) * 1e-7)
				call := func() {
					if items = sortFn(c, items, recKey); prog[1]&0x40 != 0 {
						items = sortFn(c, items, recKey)
					}
				}
				if prog[1]&0x20 != 0 {
					c.Phase("sort", call)
				} else {
					call()
				}
				c.SetResult(items)
			})
		}
		ref, replayed := refSortMerge[rec], SortMerge[rec]
		if prog[1]&0x80 != 0 {
			ref, replayed = refSortRotational[rec], SortRotational[rec]
		}
		want, got := run(ref), run(replayed)
		gotEvs, wantEvs := virtualEvents(got.Events), virtualEvents(want.Events)
		for r := 0; r < p; r++ {
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"items", got.Values[r], want.Values[r]},
				{"clock bits", math.Float64bits(got.Clocks[r]), math.Float64bits(want.Clocks[r])},
				{"messages", got.MessagesSent[r], want.MessagesSent[r]},
				{"bytes", got.BytesSent[r], want.BytesSent[r]},
				{"phases", got.Phases[r], want.Phases[r]},
				{"events", gotEvs[r], wantEvs[r]},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("rank %d of %d: %s differ from the message-level sort:\n got %v\nwant %v", r, p, c.what, c.got, c.want)
				}
			}
		}
		var wantKeys, gotKeys []uint64
		for r := range in {
			for _, e := range in[r] {
				wantKeys = append(wantKeys, e.Key)
			}
			for _, e := range got.Values[r].([]rec) {
				gotKeys = append(gotKeys, e.Key)
			}
		}
		sort.SliceStable(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
		if !reflect.DeepEqual(gotKeys, wantKeys) {
			t.Fatalf("%d ranks: output keys %v, want the stable sort of the input's %v", p, gotKeys, wantKeys)
		}
	})
}
