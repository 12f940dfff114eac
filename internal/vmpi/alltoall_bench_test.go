package vmpi

import "testing"

// BenchmarkAlltoall16 is the highest fan-in the paper configurations use:
// 16 ranks exchanging pairwise blocks, repeated across rounds. The exchange
// is one rendezvous per round, so it measures the replay and the executor,
// not the mailbox. Run it before and after scheduler changes to catch
// contention regressions.
func BenchmarkAlltoall16(b *testing.B) {
	const ranks = 16
	const rounds = 4
	payload := make([]float64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(Config{Ranks: ranks}, func(c *Comm) {
			for r := 0; r < rounds; r++ {
				parts := make([][]float64, ranks)
				for dst := range parts {
					buf := make([]float64, 0, len(payload))
					parts[dst] = append(buf, payload...)
				}
				recv := AlltoallOwned(c, parts)
				ReleaseBlocks(recv)
			}
		})
	}
}

// BenchmarkMailboxFanIn512 is the mailbox at its widest fan-in: every one
// of 511 peers has delivered before the owner starts receiving, so 511
// match keys are pending at once, and they are taken in source order, which
// is arrival order — each take finds its envelope at the head of the list.
// One op is the whole round, 511 puts and 511 takes.
func BenchmarkMailboxFanIn512(b *testing.B) {
	const ranks = 512
	mb, c := &mailbox{}, &Comm{}
	msgs := make([]message, ranks)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for src := 1; src < ranks; src++ {
			m := &msgs[src]
			m.src, m.tag = src, tagA2A
			mb.put(m)
		}
		for src := 1; src < ranks; src++ {
			if mb.take(c, src, tagA2A) != &msgs[src] {
				b.Fatalf("wrong envelope for source %d", src)
			}
		}
	}
}

// BenchmarkMailboxPingPong2Keys is the other extreme: two ranks, two match
// keys pending per mailbox at a time, the later one taken first, every
// receive a park and a wake. One op is one exchange on each side — four
// messages.
func BenchmarkMailboxPingPong2Keys(b *testing.B) {
	b.ReportAllocs()
	Run(Config{Ranks: 2, Workers: 2}, func(c *Comm) {
		partner := 1 - c.Rank()
		for i := 0; i < b.N; i++ {
			SendVal(c, int64(i), partner, 7)
			SendVal(c, int64(i), partner, 8)
			if RecvVal[int64](c, partner, 8) != int64(i) || RecvVal[int64](c, partner, 7) != int64(i) {
				panic("wrong value")
			}
		}
	})
}
