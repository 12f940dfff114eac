package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mdsim"
	"repro/internal/particle"
	"repro/internal/refsolve"
	"repro/internal/vmpi"
)

// mdKind is one of the two Fig 9 configurations. They use coupling and
// redist in opposite ways on purpose: md-fmm resorts application data by
// index (method B), md-pnfft exchanges densely and restores the original
// order every step (method A), so a gain on one that costs the other shows.
type mdKind struct {
	solver        string
	torus         bool
	dist          particle.Dist
	resort        bool
	trackMovement bool
}

var (
	mdFMM   = mdKind{solver: "fmm", dist: particle.DistGrid, resort: true, trackMovement: true}
	mdPNFFT = mdKind{solver: "p2nfft", torus: true, dist: particle.DistRandom}
)

// The Fig 9 settings of cmd/paperbench (-fig 9l / 9r) at the default scale.
const (
	mdRanks     = 8
	mdParticles = 6000
	mdSteps     = 8
	mdDt        = 0.025
	mdThermal   = 2.5
	mdAccuracy  = 1e-3
	// mdSpacing is the paper's mean ion spacing (248 / 829440^(1/3)); the
	// box side follows from it so the density is the paper's at any size.
	mdSpacing = 2.6567
)

// mdSystemSeed maps the benchmark seed to the particle-system seed; the
// default seed 1 gives paperbench's default system (seed 42).
func mdSystemSeed(seed int64) int64 { return 41 + seed }

type mdInstance struct {
	kind    mdKind
	sys     *particle.System
	sysSeed int64
	steps   int
}

func newMD(kind mdKind, seed int64, quick bool) *mdInstance {
	n, steps := mdParticles, mdSteps
	if quick {
		n, steps = mdParticles/16, 2
	}
	w := &mdInstance{kind: kind, sysSeed: mdSystemSeed(seed), steps: steps}
	w.sys = particle.SilicaMelt(n, mdSpacing*math.Cbrt(float64(n)), true, w.sysSeed)
	particle.Thermalize(w.sys, mdThermal, w.sysSeed+2)
	return w
}

func (w *mdInstance) world() vmpi.Config {
	if w.kind.torus {
		return torusWorld(mdRanks)
	}
	return switchedWorld(mdRanks)
}

func (w *mdInstance) work() float64 { return float64(w.sys.N * (w.steps + 1)) }

// mdRank is what one rank reports: the virtual Total of its last step, the
// digest of its final particle state and its share of the coupling counts.
type mdRank struct {
	lastTotal   float64
	digest      [sha256.Size]byte
	n           int
	moved, kept int
	runs, fast  int
	fallbacks   int
}

// solverTotal is paperbench's per-step Total: the solver run plus method
// B's application-side resort.
func solverTotal(c *vmpi.Comm) float64 {
	return c.PhaseTime(api.PhaseTotal) + c.PhaseTime(api.PhaseResort)
}

// setupSim is the start of paperbench.Run's rank body: distribute, create
// the solver handle, build the simulation.
func (w *mdInstance) setupSim(c *vmpi.Comm, tr *tracer) *mdsim.Sim {
	id := tr.rank0(c, "particle.Distribute", "particle")
	l := particle.Distribute(c, w.sys, w.kind.dist, w.sysSeed+1)
	tr.end(id)
	id = tr.rank0(c, "core.Init", "core")
	h, err := core.Init(w.kind.solver, c,
		core.WithBox(w.sys.Box),
		core.WithAccuracy(mdAccuracy),
		core.WithResort(w.kind.resort),
	)
	tr.end(id)
	if err != nil {
		panic(err)
	}
	sim := mdsim.New(c, h, l, mdDt)
	sim.TrackMovement = w.kind.trackMovement
	return sim
}

func (w *mdInstance) body(tr *tracer) func(c *vmpi.Comm) {
	return func(c *vmpi.Comm) {
		tr.stampStart(c)
		sim := w.setupSim(c, tr)
		var out mdRank
		note := func() {
			if rs, ok := sim.LastRunStats(); ok {
				out.runs++
				out.moved += rs.Moved
				out.kept += rs.Kept
				if rs.FastPath {
					out.fast++
				}
				if rs.Fallback || rs.CapacityFallback {
					out.fallbacks++
				}
			}
		}
		id := tr.rank0(c, "Sim.Init", "mdsim")
		err := sim.Init()
		tr.end(id)
		if err != nil {
			panic(err)
		}
		note()
		prev := 0.0
		for i := 0; i < w.steps; i++ {
			prev = solverTotal(c)
			id = tr.rank0(c, "Sim.Step", "mdsim")
			err = sim.Step()
			tr.end(id)
			if err != nil {
				panic(err)
			}
			note()
		}
		out.lastTotal = solverTotal(c) - prev
		out.digest = stateDigest(sim.L)
		out.n = sim.L.N
		c.SetResult(out)
		tr.stampEnd(c)
	}
}

// stateDigest hashes a rank's complete final particle state exactly as
// paperbench does, so the digests are comparable.
func stateDigest(l *particle.Local) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	writeFloats := func(v []float64) {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:], uint64(l.N))
	h.Write(b[:])
	n := l.N
	writeFloats(l.Pos[:3*n])
	writeFloats(l.Q[:n])
	writeFloats(l.Pot[:n])
	writeFloats(l.Field[:3*n])
	writeFloats(l.Vel[:3*n])
	writeFloats(l.Acc[:3*n])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func (w *mdInstance) check(st *vmpi.Stats) (Virtual, map[string]float64, error) {
	var v Virtual
	h := sha256.New()
	var total mdRank
	last := 0.0
	for r, val := range st.Values {
		rk, ok := val.(mdRank)
		if !ok {
			return v, nil, fmt.Errorf("rank %d returned no result", r)
		}
		h.Write(rk.digest[:])
		last = math.Max(last, rk.lastTotal)
		total.n += rk.n
		total.moved += rk.moved
		total.kept += rk.kept
		if r == 0 {
			// Strategy decisions are collective: rank 0 speaks for all.
			total.runs, total.fast, total.fallbacks = rk.runs, rk.fast, rk.fallbacks
		}
	}
	v.Digest = hex.EncodeToString(h.Sum(nil))
	v.setSeconds(last)
	if total.n != w.sys.N {
		return v, nil, fmt.Errorf("particle count not conserved: %d on ranks, %d generated", total.n, w.sys.N)
	}
	layer := map[string]float64{"coupling.fallbacks": float64(total.fallbacks)}
	if total.moved+total.kept > 0 {
		layer["coupling.moved_share"] = float64(total.moved) / float64(total.moved+total.kept)
	}
	if total.runs > 0 {
		layer["coupling.fast_path_share"] = float64(total.fast) / float64(total.runs)
	}
	return v, layer, nil
}

// energyError runs the initial solve once more and compares its potential
// energy with a tight Ewald reference (refsolve, 1e-7): the accuracy figure
// stated beside every md-* row, so a host speed-up that loosens the physics
// cannot pass as one.
func (w *mdInstance) energyError() (relErr float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("energy run: %v", p)
		}
	}()
	st := vmpi.Run(w.world(), func(c *vmpi.Comm) {
		sim := w.setupSim(c, nil)
		if err := sim.Init(); err != nil {
			panic(err)
		}
		c.SetResult(refsolve.Energy(sim.L.ActiveQ(), sim.L.ActivePot()))
	})
	got := 0.0
	for _, v := range st.Values {
		got += v.(float64)
	}
	pot := make([]float64, w.sys.N)
	field := make([]float64, 3*w.sys.N)
	refsolve.NewEwald(w.sys.Box, 1e-7).Compute(w.sys.Pos, w.sys.Q, pot, field)
	want := refsolve.Energy(w.sys.Q, pot)
	return math.Abs(got-want) / math.Abs(want), nil
}
