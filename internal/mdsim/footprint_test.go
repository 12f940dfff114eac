package mdsim

import (
	"testing"

	"repro/internal/api"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

// Footprint tests use vmpi's communication tracing to verify the paper's
// structural claims about who talks to whom and how much data moves,
// independent of any timing model.

// traceSim runs a short simulation and returns the event log of the LAST
// step only (steady state). Event streams are deterministic, so the last
// step's events are obtained by subtracting a prefix run (all but the last
// step) from a full run.
func traceSim(t *testing.T, s *particle.System, solver string, dist particle.Dist,
	resort, track bool, ranks, steps int, model netmodel.Model) *obs.Log {
	t.Helper()
	run := func(n int) *vmpi.Stats {
		return vmpi.Run(vmpi.Config{Ranks: ranks, Trace: true, Model: model}, func(c *vmpi.Comm) {
			sim := setup(t, c, s, solver, dist, resort, track, 0.001)
			if err := sim.Init(); err != nil {
				t.Errorf("init: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				if err := sim.Step(); err != nil {
					t.Errorf("step: %v", err)
					return
				}
			}
		})
	}
	full := run(steps).Events
	prefix := run(steps - 1).Events
	last := &obs.Log{ByRank: make([][]obs.Event, ranks)}
	for r := range last.ByRank {
		last.ByRank[r] = full.ByRank[r][len(prefix.ByRank[r]):]
	}
	return last
}

// redistBytes sums the traced bytes of all redistribution phases.
func redistBytes(l *obs.Log) int64 {
	return l.TotalBytes(api.PhaseSort) + l.TotalBytes(api.PhaseRestore) +
		l.TotalBytes(api.PhaseResort) + l.TotalBytes(api.PhaseResortCreate)
}

// sortPayloads returns the sort-phase sends that carry particle records
// (48 bytes each), excluding the small control messages.
func sortPayloads(l *obs.Log) []obs.Event {
	return l.Filter(func(e obs.Event) bool {
		return e.Kind == obs.KindSend && e.Name == api.PhaseSort && e.Bytes >= 48
	})
}

func TestFMMMethodBShrinksRedistributionTraffic(t *testing.T) {
	// From a random initial distribution, method A re-restores the random
	// layout every step, so its redistribution traffic stays at full
	// volume; method B's steady state moves almost nothing. The traced
	// bytes of the redistribution phases make this claim timing-free.
	s := particle.SilicaMelt(1728, 32, true, 3)
	const ranks = 8
	a := traceSim(t, s, "fmm", particle.DistRandom, false, false, ranks, 3, netmodel.NewSwitched())
	b := traceSim(t, s, "fmm", particle.DistRandom, true, false, ranks, 3, netmodel.NewSwitched())
	ba, bb := redistBytes(a), redistBytes(b)
	if bb*4 >= ba {
		t.Errorf("method B redistribution traffic %d should be far below method A's %d", bb, ba)
	}
	t.Logf("last-step redistribution traffic: method A %d bytes, method B %d bytes", ba, bb)
}

func TestFMMMovementHeuristicExploitsSortedness(t *testing.T) {
	// With the movement hint, the FMM switches to the merge-based sort.
	// The paper's claims: it uses point-to-point operations (fewer
	// messages than the partition sort's collectives), and with almost
	// sorted data the pairwise merge-split exchanges collapse to
	// header-only messages, so the particle-data volume stays a small
	// fraction of a full redistribution.
	s := particle.SilicaMelt(1728, 32, true, 3)
	const ranks = 8
	plain := traceSim(t, s, "fmm", particle.DistGrid, true, false, ranks, 3, netmodel.NewSwitched())
	moved := traceSim(t, s, "fmm", particle.DistGrid, true, true, ranks, 3, netmodel.NewSwitched())
	mm, mp := moved.MessageCount(api.PhaseSort), plain.MessageCount(api.PhaseSort)
	if mm >= mp {
		t.Errorf("merge-based sort should send fewer messages: %d vs %d", mm, mp)
	}
	dataBytes := int64(0)
	for _, e := range sortPayloads(moved) {
		dataBytes += int64(e.Bytes)
	}
	fullVolume := int64(s.N * 48)
	if dataBytes > fullVolume/4 {
		t.Errorf("merge sort moved %d data bytes; almost sorted input should need far less than a full exchange (%d)",
			dataBytes, fullVolume)
	}
	t.Logf("sort-phase: %d msgs (merge) vs %d (partition); merge data volume %d of %d full",
		mm, mp, dataBytes, fullVolume)
}

func TestP2NFFTNeighborhoodFootprint(t *testing.T) {
	// With 64 ranks on a 4×4×4 grid and the movement hint, the P2NFFT
	// redistribution talks only to the 26 grid neighbors, while the
	// collective backend's pairwise exchange sends one message to each of
	// the 63 other ranks — the message-count saving of the paper's §III-B
	// optimization.
	s := particle.SilicaMelt(4096, 42.5, true, 5)
	const ranks = 64
	a2a := traceSim(t, s, "p2nfft", particle.DistGrid, true, false, ranks, 2, netmodel.NewTorus(ranks))
	nbr := traceSim(t, s, "p2nfft", particle.DistGrid, true, true, ranks, 2, netmodel.NewTorus(ranks))
	msgsA2A := a2a.MessageCount(api.PhaseSort)
	msgsNbr := nbr.MessageCount(api.PhaseSort)
	if msgsNbr >= msgsA2A {
		t.Errorf("neighborhood should send fewer sort-phase messages: %d vs %d", msgsNbr, msgsA2A)
	}
	t.Logf("sort-phase messages: all-to-all %d, neighborhood %d", msgsA2A, msgsNbr)

	// Data-bearing footprint: with the neighborhood backend, every rank's
	// sort-phase particle payloads go to grid neighbors only (the small
	// control messages of the collective fallback decision are excluded).
	pairs := map[[2]int]bool{}
	for _, e := range sortPayloads(nbr) {
		if e.Peer != e.Rank {
			pairs[[2]int{e.Rank, e.Peer}] = true
		}
	}
	pairsNbr := len(pairs)
	if pairsNbr > ranks*26 {
		t.Errorf("neighborhood footprint %d pairs exceeds the neighbor bound %d", pairsNbr, ranks*26)
	}
	t.Logf("neighborhood data footprint: %d pairs (bound %d)", pairsNbr, ranks*26)
}
