package vmpi

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/netmodel"
)

// collSet is one implementation of the collectives, at the element types
// the fuzz programs use.
type collSet struct {
	barrier   func(*Comm)
	allreduce func(*Comm, []float64, func(a, b float64) float64) []float64
	exscan    func(*Comm, []float64, func(a, b float64) float64) []float64
	allgather func(*Comm, []uint32) []uint32
	blocks    func(*Comm, []uint32) [][]uint32
	alltoall  func(*Comm, [][]uint32) [][]uint32
	owned     func(*Comm, [][]uint32) [][]uint32
	linear    func(*Comm, [][]byte, int) [][]byte
}

var (
	replayColls = collSet{Barrier, Allreduce[float64], Exscan[float64], Allgather[uint32], AllgatherBlocks[uint32],
		Alltoall[uint32], AlltoallOwned[uint32], AlltoallLinear[byte]}
	messageColls = collSet{refBarrier, refAllreduce[float64], refExscan[float64], refAllgather[uint32], refAllgatherBlocks[uint32],
		refAlltoall[uint32], refAlltoallOwned[uint32], refAlltoallLinear[byte]}
)

// fuzzSizes are block lengths in 4-byte elements: empty, one element, the
// 32 B inline limit and one element past it, and both sides of the smallest
// pool size class (32 elements) and the next class.
var fuzzSizes = [...]int{0, 1, 8, 9, 31, 32, 33, 64}

// fuzzLinearSizes are AlltoallLinear's part lengths in bytes: empty (nil or
// not), one byte, both sides of the inline limit and of the smallest pool
// size class (32 B), and both sides of the next class.
var fuzzLinearSizes = [...]int{0, 1, 31, 32, 33, 63, 64, 65}

func fuzzMix(a, b, c uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F ^ c*0x165667B19E3779F9
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	return x ^ x>>29
}

// fuzzFloat spreads values over forty binary orders of magnitude, so a sum
// depends on its association order.
func fuzzFloat(k, r, i int) float64 {
	h := fuzzMix(uint64(k), uint64(r), uint64(i))
	return math.Ldexp(float64(h>>11)/(1<<53)-0.5, int(h%41)-20)
}

func fuzzBlock(k, r, n int) []uint32 {
	b := make([]uint32, n)
	for i := range b {
		b[i] = uint32(fuzzMix(uint64(k), uint64(r), uint64(i)))
	}
	return b
}

// fuzzDigest folds a result's length and element bits into d.
func fuzzDigest[T byte | uint32 | float64](d uint64, b []T) uint64 {
	d = fuzzMix(d, uint64(len(b)), 1)
	for _, v := range b {
		bits := uint64(v)
		if f, ok := any(v).(float64); ok {
			bits = math.Float64bits(f)
		}
		d = fuzzMix(d, bits, 2)
	}
	return d
}

// fuzzProgram is one rank of the program ops encodes, one byte per call:
// bits 0-2 pick the collective, bits 3-5 the block size, bit 6 turns an
// Allreduce into Exscan and an all-to-all into AlltoallLinear on tag 5 or
// 221, bit 7 picks the world or a Split sub-communicator (split by the
// rendezvous Allgather in both runs).
// Ranks compute for different times between calls, odd calls run inside a
// phase, and each rank stores a digest of every result it got.
func fuzzProgram(cs collSet, ops []byte) func(c *Comm) {
	return func(c *Comm) {
		me := c.Rank()
		sub := c.Split(me%3, -me)
		var digests []uint64
		for k, op := range ops {
			cc := c
			if op&0x80 != 0 {
				cc = sub
			}
			c.Compute(float64(fuzzMix(uint64(k), uint64(me), 3)%7) * 1e-7)
			call := func() { digests = append(digests, fuzzCall(cs, cc, op, k)) }
			if k%2 == 1 {
				c.Phase("odd", call)
			} else {
				call()
			}
		}
		c.SetResult(digests)
	}
}

func fuzzCall(cs collSet, c *Comm, op byte, k int) uint64 {
	me, p := c.Rank(), c.Size()
	size := int(op >> 3 & 7)
	n := fuzzSizes[size]
	switch op & 7 {
	case 0:
		cs.barrier(c)
		return 0
	case 1, 2:
		in := make([]float64, n)
		for i := range in {
			in[i] = fuzzFloat(k, me, i)
		}
		f := cs.allreduce
		if op&0x40 != 0 {
			f = cs.exscan
		}
		return fuzzDigest(0, f(c, in, Sum[float64]))
	case 3:
		return fuzzDigest(0, cs.allgather(c, fuzzBlock(k, me, fuzzSizes[(size+me)%len(fuzzSizes)])))
	case 4:
		d := uint64(0)
		for _, b := range cs.blocks(c, fuzzBlock(k, me, fuzzSizes[(size+me)%len(fuzzSizes)])) {
			d = fuzzDigest(d, b)
		}
		return d
	}
	if op&0x40 != 0 {
		parts := make([][]byte, p)
		for dst := range parts {
			if n := fuzzLinearSizes[(size+me+dst)%len(fuzzLinearSizes)]; n > 0 || dst%2 == 1 {
				parts[dst] = make([]byte, n)
				for i := range parts[dst] {
					parts[dst][i] = byte(fuzzMix(uint64(k), uint64(me*p+dst), uint64(i)))
				}
			}
		}
		d := uint64(0)
		for _, b := range cs.linear(c, parts, [2]int{5, 221}[op&1]) {
			d = fuzzDigest(d, b)
		}
		return d
	}
	parts := make([][]uint32, p)
	for dst := range parts {
		parts[dst] = fuzzBlock(k, me*p+dst, fuzzSizes[(size+me+dst)%len(fuzzSizes)])
	}
	f := cs.alltoall
	if op&7 >= 6 {
		f = cs.owned
	}
	d := uint64(0)
	for _, b := range f(c, parts) {
		d = fuzzDigest(d, b)
	}
	return d
}

// FuzzCollectivesMatchMessageLevel runs the program a byte string encodes
// twice — on the rendezvous collectives and on their message-level reference
// bodies — and compares every rank's results, final clock bits, message and
// byte counts, phase times and, under Trace, its full event list. Byte 0
// picks the world size, 1 to 40 ranks — small primes, both sides of the
// ring/tree allgather switch (32, 33) and primes above it — byte 1 the trace
// flag (bit 0), the torus model (bit 1) and three run slots instead of one
// (bit 2); at most 24 calls follow.
func FuzzCollectivesMatchMessageLevel(f *testing.F) {
	f.Add([]byte{10, 1, 0x01, 0x0b, 0x83, 0x25, 0x8c, 0x36, 0x80, 0x17})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		p := 1 + int(prog[0])%40
		cfg := Config{Ranks: p, Trace: prog[1]&1 != 0, Workers: 1 + 2*int(prog[1]>>2&1)}
		if prog[1]&2 != 0 {
			cfg.Model = netmodel.NewTorus(p)
		}
		ops := prog[2:min(len(prog), 26)]
		want := Run(cfg, fuzzProgram(messageColls, ops))
		got := Run(cfg, fuzzProgram(replayColls, ops))
		gotEvs, wantEvs := virtualEvents(got.Events), virtualEvents(want.Events)
		for r := 0; r < p; r++ {
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"clock bits", math.Float64bits(got.Clocks[r]), math.Float64bits(want.Clocks[r])},
				{"results", got.Values[r], want.Values[r]},
				{"messages", got.MessagesSent[r], want.MessagesSent[r]},
				{"bytes", got.BytesSent[r], want.BytesSent[r]},
				{"phases", got.Phases[r], want.Phases[r]},
				{"events", gotEvs[r], wantEvs[r]},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("rank %d of %d: %s differ from the message-level run:\n got %v\nwant %v", r, p, c.what, c.got, c.want)
				}
			}
		}
	})
}
