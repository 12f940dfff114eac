// Package elastic implements live particle redistribution across world
// resizes: the bridge between vmpi's epoch-versioned elastic worlds
// (vmpi.Resize) and the particle state the application layers own. A
// resize changes the process count P mid-simulation; this package moves
// the complete per-particle state — positions, charges, velocities,
// accelerations, and the last solver outputs — onto the balanced block
// partition of the new world using the library's fine-grained
// redistribution operation (redist), so the coupling pipeline and the
// solver adapters see an ordinary freshly distributed particle set and
// need no elastic-specific code.
//
// The ordering differs by direction so that no particle ever lives on a
// rank outside the current world:
//
//   - Shrink: remap on the old world first (retiring ranks hand their
//     particles off while they can still communicate), then vmpi.Resize
//     retires them.
//   - Grow: vmpi.Resize admits the new ranks first, then the remap runs on
//     the new world; admitted ranks take part via Join with zero particles
//     and receive their block.
//
// Survivors drive both directions through Resize; newly admitted ranks —
// which re-enter the Run body and detect their admission via
// Comm.JoinEpoch — call Join instead. Both sides meet in the same
// collective remap.
package elastic

import (
	"repro/internal/particle"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// PhaseRemap is the obs phase span covering the particle remap of a
// resize (the redistribution cost the resize pays, next to vmpi's own
// PhaseResize span for the world reconfiguration itself).
const PhaseRemap = "elastic/remap"

// record is the full per-particle state moved by a remap: solver inputs,
// application data (velocities, accelerations), and the last solver
// outputs, 14 float64 words on the wire.
type record struct {
	Pos   [3]float64
	Q     float64
	Vel   [3]float64
	Acc   [3]float64
	Pot   float64
	Field [3]float64
}

// Capacity sizes the local particle arrays of a remapped world for a rank
// that received n particles. It must be able to hold at least n.
type Capacity func(n int) int

// defaultCapacity doubles the delivered count (minimum 16): enough slack
// for method B's changed distributions under mild imbalance.
func defaultCapacity(n int) int {
	if c := 2 * n; c > 16 {
		return c
	}
	return 16
}

// remap redistributes the local particle state onto the balanced block
// partition over the first newP ranks of the communicator (collective;
// redist.RemapBlocks order). Ranks at or beyond newP end up empty. The
// returned Local is freshly allocated with capf (nil means
// defaultCapacity) and carries l's box. RemapBlocks is plan-backed, so a
// memory budget on the communicator bounds the remap's staged bytes.
func remap(c *vmpi.Comm, l *particle.Local, newP int, capf Capacity) *particle.Local {
	if capf == nil {
		capf = defaultCapacity
	}
	var out *particle.Local
	c.Phase(PhaseRemap, func() {
		moved := redist.RemapBlocks(c, pack(l), newP)
		out = unpack(l.Box, moved, capf)
	})
	return out
}

// Resize performs a live world resize for the current members: the
// particles are remapped onto the new world's block partition and the
// vmpi world is resized to newN ranks. Retiring ranks (rank ≥ newN) hand
// off their particles and receive (nil, nil) — they must return from the
// Run body. Survivors receive the new communicator and their block of the
// particle state. On growth, the admitted ranks enter the Run body anew
// and must call Join to meet the survivors' remap.
func Resize(c *vmpi.Comm, l *particle.Local, newN int, capf Capacity) (*vmpi.Comm, *particle.Local) {
	switch {
	case newN < c.Size():
		// Shrink: move state off the retiring ranks while they are still in
		// the world, then retire them.
		l2 := remap(c, l, newN, capf)
		c2 := vmpi.Resize(c, newN)
		if c2 == nil {
			return nil, nil
		}
		return c2, l2
	case newN > c.Size():
		// Grow: admit the new ranks, then spread the state over the full new
		// world together with them (their Join runs the same remap).
		c2 := vmpi.Resize(c, newN)
		return c2, remap(c2, l, newN, capf)
	default:
		// Same size: epoch bump only, the distribution already fits.
		return vmpi.Resize(c, newN), l
	}
}

// Join is the admitted rank's side of a growing Resize: called right
// after entry into the Run body (when Comm.JoinEpoch reports a late
// join), it contributes zero particles to the survivors' remap and
// returns this rank's block of the redistributed state.
func Join(c *vmpi.Comm, box particle.Box, capf Capacity) *particle.Local {
	return remap(c, particle.NewLocal(box, 0), c.Size(), capf)
}

// pack flattens the live particles into wire records.
func pack(l *particle.Local) []record {
	recs := make([]record, l.N)
	for i := range recs {
		r := &recs[i]
		copy(r.Pos[:], l.Pos[3*i:3*i+3])
		r.Q = l.Q[i]
		copy(r.Vel[:], l.Vel[3*i:3*i+3])
		copy(r.Acc[:], l.Acc[3*i:3*i+3])
		r.Pot = l.Pot[i]
		copy(r.Field[:], l.Field[3*i:3*i+3])
	}
	return recs
}

// unpack materializes received records as a fresh Local.
func unpack(box particle.Box, recs []record, capf Capacity) *particle.Local {
	n := len(recs)
	capacity := capf(n)
	if capacity < n {
		capacity = n
	}
	out := particle.NewLocal(box, capacity)
	out.N = n
	for i, r := range recs {
		copy(out.Pos[3*i:3*i+3], r.Pos[:])
		out.Q[i] = r.Q
		copy(out.Vel[3*i:3*i+3], r.Vel[:])
		copy(out.Acc[3*i:3*i+3], r.Acc[:])
		out.Pot[i] = r.Pot
		copy(out.Field[3*i:3*i+3], r.Field[:])
	}
	return out
}
