package vmpi

import (
	"fmt"
	"math"
	"testing"
)

// The broadcasting collectives against a rank-loop oracle, at communicator
// sizes on both sides of the ring/tree switch (32 → 33) and payload lengths
// on both sides of the inline limit (1 × 24 B inline, 5 × 24 B = 120 B
// shared; the pins below were taken when the limit sat between lengths 5
// and 6, so they also show that where it sits changes no virtual quantity)
// and on pool size classes (32, 4096 — where a shared buffer must not be
// pool-shaped, or a Release would recycle memory other ranks still read).
//
// Each (P, length) cell runs one world: Bcast from every root, Allreduce,
// Allgather, AllgatherBlocks. Every rank checks every result against the
// oracle, Releases it, and churns the buffer pool with garbage of the same
// size class before moving on — ranks reach that point at different host
// times, so a shared buffer that entered the pool would be overwritten
// under a rank still checking it. The world's message count, byte count and
// final virtual clock are pinned to the values the copying broadcast
// produced: sharing the payload must change no virtual quantity.

// oracleRec is a flat 24-byte payload element.
type oracleRec struct {
	A int64
	B uint64
	C float64
}

// oracleRecOf is element i of the payload owned by src. C stays a small
// integer so that sums are exact in any association order.
func oracleRecOf(src, i int) oracleRec {
	return oracleRec{
		A: int64(src)*1_000_003 + int64(i),
		B: uint64(src+1)*0x9E3779B97F4A7C15 ^ uint64(i),
		C: float64(src%13 + i%7),
	}
}

func oracleFill(src, n int) []oracleRec {
	out := make([]oracleRec, n)
	for i := range out {
		out[i] = oracleRecOf(src, i)
	}
	return out
}

// oracleOp is commutative and associative on every field.
func oracleOp(a, b oracleRec) oracleRec {
	return oracleRec{A: a.A + b.A, B: Max(a.B, b.B), C: a.C + b.C}
}

// oracleBlockLen is rank r's contribution to the variable-length
// AllgatherBlocks: rank 0 sends the short block, so the root's size guess
// for the concatenation is low and the gather has to grow it.
func oracleBlockLen(r, n int) int {
	if r%3 == 0 {
		return n / 2
	}
	return n
}

func oracleCheck(what string, got []oracleRec, n int, want func(i int) oracleRec) {
	if len(got) != n {
		panic(fmt.Sprintf("%s: got %d elements, want %d", what, len(got), n))
	}
	for i := range got {
		if w := want(i); got[i] != w {
			panic(fmt.Sprintf("%s: element %d = %+v, want %+v", what, i, got[i], w))
		}
	}
}

// oracleChurn recycles one garbage-filled pool buffer of n elements.
func oracleChurn(n int) {
	b := getSlice[oracleRec](n)
	for i := range b {
		b[i] = oracleRec{A: -1, B: ^uint64(0), C: math.Inf(1)}
	}
	Release(b)
}

// oracleBody is one rank of a cell; wantSum is the rank loop's Allreduce
// result, folded once per cell in rank order.
func oracleBody(c *Comm, n int, wantSum []oracleRec) {
	p, me := c.Size(), c.Rank()
	done := func(res []oracleRec) {
		n := len(res)
		Release(res)
		oracleChurn(n)
	}
	for root := 0; root < p; root++ {
		var in []oracleRec
		if me == root {
			in = oracleFill(root, n)
		}
		got := Bcast(c, in, root)
		oracleCheck(fmt.Sprintf("rank %d: Bcast from %d", me, root), got, n,
			func(i int) oracleRec { return oracleRecOf(root, i) })
		done(got)
	}

	sum := Allreduce(c, oracleFill(me, n), oracleOp)
	oracleCheck(fmt.Sprintf("rank %d: Allreduce", me), sum, n,
		func(i int) oracleRec { return wantSum[i] })
	done(sum)

	all := Allgather(c, oracleFill(me, n))
	oracleCheck(fmt.Sprintf("rank %d: Allgather", me), all, p*n,
		func(i int) oracleRec { return oracleRecOf(i/n, i%n) })
	done(all)

	if p*p*n > 1<<24 {
		// P private copies of a P·n concatenation: the block form is
		// quadratic by contract, skip it where that is gigabytes.
		return
	}
	blocks := AllgatherBlocks(c, oracleFill(me, oracleBlockLen(me, n)))
	if len(blocks) != p {
		panic(fmt.Sprintf("rank %d: AllgatherBlocks returned %d blocks, want %d", me, len(blocks), p))
	}
	for r, b := range blocks {
		oracleCheck(fmt.Sprintf("rank %d: AllgatherBlocks[%d]", me, r), b, oracleBlockLen(r, n),
			func(i int) oracleRec { return oracleRecOf(r, i) })
		// Blocks are private: writable, and releasable one by one.
		if len(b) > 0 {
			b[0].A = -1
		}
		done(b)
	}
}

// oraclePin is one cell's virtual footprint on the default switched
// network: total messages, total bytes, and the bit pattern of the final
// virtual clock.
type oraclePin struct {
	p, n       int
	msgs, byts int64
	clock      uint64
}

func TestCollectivesMatchRankLoopOracle(t *testing.T) {
	for _, pin := range oraclePins {
		t.Run(fmt.Sprintf("p%d/len%d", pin.p, pin.n), func(t *testing.T) {
			if (raceEnabled || DebugEnabled()) && pin.p*pin.n > 1<<18 {
				// Tens of megabytes per allgather result, touched by every
				// rank: minutes under instrumentation, and the same code
				// paths as the 33-rank cell of this length.
				t.Skip("cell too large for an instrumented build")
			}
			wantSum := oracleFill(0, pin.n)
			for r := 1; r < pin.p; r++ {
				for i := range wantSum {
					wantSum[i] = oracleOp(wantSum[i], oracleRecOf(r, i))
				}
			}
			st := Run(Config{Ranks: pin.p}, func(c *Comm) { oracleBody(c, pin.n, wantSum) })
			got := oraclePin{pin.p, pin.n, st.TotalMessages(), st.TotalBytes(), math.Float64bits(st.MaxClock())}
			if got != pin {
				t.Errorf("virtual footprint moved:\n got {%d, %d, %d, %d, %#x},\nwant {%d, %d, %d, %d, %#x},",
					got.p, got.n, got.msgs, got.byts, got.clock, pin.p, pin.n, pin.msgs, pin.byts, pin.clock)
			}
		})
	}
}

// oraclePins was recorded at the parent of the change that made broadcast
// payloads shared (every cell run there under the copying Bcast) and must
// not move.
var oraclePins = []oraclePin{
	{1, 0, 0, 0, 0},
	{1, 1, 0, 0, 0},
	{1, 5, 0, 0, 0},
	{1, 6, 0, 0, 0},
	{1, 31, 0, 0, 0},
	{1, 32, 0, 0, 0},
	{1, 33, 0, 0, 0},
	{1, 4096, 0, 0, 0},
	{2, 0, 8, 0, 0x3ef09147bb807430},
	{2, 1, 8, 168, 0x3ef0b17e11d3bd02},
	{2, 5, 8, 888, 0x3ef13f39f40efd6c},
	{2, 6, 8, 1080, 0x3ef165e18ed954cf},
	{2, 31, 8, 5568, 0x3ef4d87f3290201f},
	{2, 32, 8, 5760, 0x3ef4ff26cd5a7783},
	{2, 33, 8, 5928, 0x3ef51f5d23adc055},
	{2, 4096, 8, 737280, 0x3f43c35eed7ed19f},
	{3, 0, 22, 0, 0x3efe8378c5e47b41},
	{3, 1, 22, 480, 0x3efec3e5728b0ce7},
	{3, 5, 22, 2496, 0x3effdf5d37018dba},
	{3, 6, 22, 3024, 0x3f001656364b1e41},
	{3, 31, 22, 15600, 0x3f0388f3da01e992},
	{3, 32, 22, 16128, 0x3f03af9b74cc40f3},
	{3, 33, 22, 16608, 0x3f03cfd1cb1f89c6},
	{3, 4096, 22, 2064384, 0x3f5553f1911ec32e},
	{7, 0, 138, 0, 0x3f149ac1b7c5d48a},
	{7, 1, 138, 2880, 0x3f14d65971131b40},
	{7, 5, 138, 15264, 0x3f15c4b85648361e},
	{7, 6, 138, 18576, 0x3f1600500f957cd4},
	{7, 31, 138, 95760, 0x3f1bd221282164d1},
	{7, 32, 138, 99072, 0x3f1c0db8e16eab8a},
	{7, 33, 138, 101952, 0x3f1c49509abbf240},
	{7, 4096, 138, 12681216, 0x3f6f399d15e123f9},
	{32, 0, 3038, 0, 0x3f383225ecf99318},
	{32, 1, 3038, 64728, 0x3f3882adc4c9c920},
	{32, 5, 3038, 340008, 0x3f39ddc40d57f9c7},
	{32, 6, 3038, 412920, 0x3f3a3ac759cedc07},
	{32, 31, 3038, 2129328, 0x3f41a5cd6226995d},
	{32, 32, 3038, 2202240, 0x3f41d44f08620a76},
	{32, 33, 3038, 2266968, 0x3f4202d0ae9d7b9c},
	{32, 4096, 3038, 281886720, 0x3f97b7c963137e7c},
	{33, 0, 1312, 16896, 0x3f2f958b5bd806f6},
	{33, 1, 1312, 87312, 0x3f30a3cd6056be1a},
	{33, 5, 1312, 386352, 0x3f343de0c766c29f},
	{33, 6, 1312, 465456, 0x3f3531e2c8840a3b},
	{33, 31, 1312, 2330112, 0x3f45d3af72a76ffe},
	{33, 32, 1312, 2409216, 0x3f464db0733613cb},
	{33, 33, 1312, 2479632, 0x3f46ba457a77593d},
	{33, 4096, 1312, 306233856, 0x3facf6949c59bd83},
	{97, 0, 10080, 148992, 0x3f4457588a0d67e7},
	{97, 1, 10080, 751872, 0x3f45c58f15dd0bb8},
	{97, 5, 10080, 3316992, 0x3f4bdbd3a5d9ee6c},
	{97, 6, 10080, 3996672, 0x3f4d78bf6208bba2},
	{97, 31, 10080, 19990272, 0x3f60db2453716bf1},
	{97, 32, 10080, 20669952, 0x3f61425f427d1f29},
	{97, 33, 10080, 21272832, 0x3f619df130f4024d},
	{97, 4096, 9792, 1859199744, 0x3fc155ea42538c96},
	{257, 0, 67840, 1052672, 0x3f5be0a44db03dae},
	{257, 1, 67840, 5283848, 0x3f5e4ef13afc64a0},
	{257, 5, 67840, 23269400, 0x3f64521611283418},
	{257, 6, 67840, 28031000, 0x3f65b03e5457228e},
	{257, 31, 67840, 140175488, 0x3f7af38ac07ca093},
	{257, 32, 67840, 144937088, 0x3f7ba29ee21416f2},
	{257, 33, 67840, 149168264, 0x3f7c3e3443289d52},
	{257, 4096, 67072, 13011257344, 0x3fdd5024565cbf4d},
}
