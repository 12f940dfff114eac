package vmpi

// Elastic worlds. Resize changes the number of live ranks mid-run: the
// world's trailing ranks retire on a shrink, fresh ranks are admitted on a
// grow, and each resize starts a new epoch with its own communicator
// context. The protocol is collective over the old world and anchors the
// new epoch at a well-defined virtual time t* (the maximum clock over the
// old world at the resize point):
//
//  1. Barrier over the old world (no rank enters the epoch switch while a
//     peer still computes in the old one).
//  2. Agreement check: every rank must request the same new size.
//  3. t* = Allreduce-max of the rank clocks; survivors advance to at least
//     t*, admitted ranks start exactly at t*.
//  4. World rank 0 rebuilds the runtime's world — retires the trailing
//     ranks, creates instances for admitted ones, installs the new epoch —
//     and admits the new tasks to the executor.
//  5. A release broadcast over the old world publishes the new epoch; its
//     message chain is also the happens-before edge that makes step 4's
//     mutations visible to every rank.
//
// Determinism: every quantity above is a pure function of virtual state, so
// resized runs remain bit-identical at any host parallelism.

import (
	"fmt"

	"repro/internal/obs"
)

// Observability names emitted by Resize. The phase span brackets the whole
// protocol on every old-world rank; the counter counts resizes per rank;
// the gauge samples the world size each rank observes after the switch.
const (
	// PhaseResize is the phase timer/span name of the resize protocol.
	PhaseResize = "vmpi/resize"
	// CounterResizes counts completed resize protocols per rank.
	CounterResizes = "vmpi/resizes"
	// GaugeWorldSize samples the world size a rank runs under; emitted
	// after every resize and at admission.
	GaugeWorldSize = "vmpi/world_size"
)

// Resize collectively changes the world size to newN and returns the new
// world communicator. Every rank of the current world must call Resize with
// the same newN. On a shrink the trailing ranks retire: Resize returns nil
// for them and their rank function should return. On a grow, newN-oldN
// fresh ranks are admitted — the runtime re-invokes the Run body for each
// (JoinEpoch reports a non-zero epoch there) with clocks starting at the
// resize time t*. Surviving ranks keep their world rank, their virtual
// clock (advanced to at least t*), and their phase and observability
// streams.
//
// newN may exceed the founding size up to Config.MaxRanks. Resize must be
// called on the current world communicator (the one Run passed to the rank
// body, or the previous Resize's return), never on a Split/Dup derivative
// or a stale epoch.
func Resize(c *Comm, newN int) *Comm {
	rt := c.rt
	if c.w != rt.currentWorld() || c.ctx != c.w.ctx || len(c.members) != len(c.w.members) {
		panic("vmpi: Resize must be called on the current world communicator")
	}
	if newN < 1 {
		panic("vmpi: Resize needs at least 1 rank")
	}
	if newN > rt.maxRanks {
		panic(fmt.Sprintf("vmpi: Resize to %d ranks exceeds MaxRanks %d", newN, rt.maxRanks))
	}
	c.Phase(PhaseResize, func() {
		Barrier(c)
		if lo, hi := AllreduceVal(c, newN, Min), AllreduceVal(c, newN, Max); lo != hi {
			panic(fmt.Sprintf("vmpi: Resize size mismatch across ranks (%d vs %d)", lo, hi))
		}
		tStar := AllreduceVal(c, c.st.clock, Max)
		if c.st.clock < tStar {
			c.st.clock = tStar
		}
		if c.rank == 0 {
			rt.reconfigure(c.w, newN, tStar)
		}
		// Release: the binomial broadcast both keeps every other old rank
		// quiescent while rank 0 mutates the runtime and, through its
		// message chain, publishes the mutations to all of them.
		Bcast(c, []byte(nil), 0)
	})
	// Split/Dup contexts derive from splitSeq; reset it so survivors and
	// admitted ranks agree on contexts derived after the resize (the new
	// epoch's context base keeps them distinct from pre-resize ones).
	c.st.splitSeq = 0
	c.Counter(CounterResizes, 1)
	c.Gauge(GaugeWorldSize, float64(newN))
	if c.rank >= newN {
		c.st.retire = c.st.clock
		return nil
	}
	next := rt.currentWorld()
	return &Comm{
		rt:      rt,
		w:       next,
		rank:    c.rank,
		members: next.members,
		ctx:     next.ctx,
		st:      c.st,
	}
}

// reconfigure builds and installs the next epoch's world. Called by world
// rank 0 of a Resize while every other old-world rank is blocked in the
// release broadcast, so mutating the runtime is single-threaded; the
// release broadcast's message chain publishes the result.
func (rt *Runtime) reconfigure(old *epochWorld, newN int, tStar float64) {
	oldN := len(old.members)
	keep := oldN
	if newN < keep {
		keep = newN
	}
	insts := make([]*rankInstance, len(old.insts), len(old.insts)+newN-keep)
	copy(insts, old.insts)
	members := make([]int, newN)
	copy(members, old.members[:keep])
	nw := &epochWorld{
		epoch:   old.epoch + 1,
		ctx:     worldCtx(old.epoch + 1),
		members: members,
		insts:   insts,
	}
	for r := keep; r < newN; r++ {
		id := len(nw.insts)
		inst := rt.newInstance(nw, id, r, tStar)
		// The admission sample parallels the one survivors emit after the
		// release, so the world-size gauge covers every live rank.
		inst.st.rec.Record(obs.Event{Kind: obs.KindGauge, Name: GaugeWorldSize, Value: float64(newN), T: tStar})
		nw.insts = append(nw.insts, inst)
		members[r] = id
	}
	rt.setWorld(nw)
	if admitted := newN - keep; admitted > 0 {
		if first := rt.exec.Admit(admitted); first != len(old.insts) {
			panic("vmpi: executor task ids out of sync with instance ids")
		}
	}
}
