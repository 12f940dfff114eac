package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/fft"
	"repro/internal/fmm"
	"repro/internal/hostpar"
	"repro/internal/netmodel"
	"repro/internal/particle"
	"repro/internal/pnfft"
	"repro/internal/psort"
	"repro/internal/rankexec"
	"repro/internal/redist"
	"repro/internal/sched"
	"repro/internal/vmpi"
)

// Layer probes: isolated calls into one layer's public functions on inputs
// cut to the workloads' shapes. Each reports ns per operation and allocations
// per operation, so a change to a layer has a number of its own even where
// the workloads only see a few percent of it.

// probeSample is one measured batch of operations.
type probeSample struct {
	ops     int
	elapsed time.Duration
	allocs  uint64
}

type probe struct {
	name string
	// moves is the end-to-end metric and workload the probed operation is
	// predicted to move.
	moves string
	// run performs reps operations and measures them.
	run func(reps int) probeSample
}

// probeTarget is how long a calibrated probe batch should take; the whole
// probe pass stays within a few seconds.
const probeTarget = 60 * time.Millisecond

const probeMaxReps = 1 << 22

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeOps measures f, which performs ops operations, from outside.
func timeOps(ops int, f func()) probeSample {
	m0 := mallocCount()
	t0 := time.Now()
	f()
	return probeSample{ops: ops, elapsed: time.Since(t0), allocs: mallocCount() - m0}
}

// worldProbe measures reps collective operations inside one world, from
// rank 0 and between barriers, so world start-up and teardown stay out of
// the figure. op runs once unmeasured first (i == -1) to fill caches.
func worldProbe(cfg vmpi.Config, reps int, op func(c *vmpi.Comm, i int)) probeSample {
	s := probeSample{ops: reps}
	vmpi.Run(cfg, func(c *vmpi.Comm) {
		op(c, -1)
		vmpi.Barrier(c)
		var t0 time.Time
		var m0 uint64
		if c.Rank() == 0 {
			m0, t0 = mallocCount(), time.Now()
		}
		for i := 0; i < reps; i++ {
			op(c, i)
		}
		vmpi.Barrier(c)
		if c.Rank() == 0 {
			s.elapsed, s.allocs = time.Since(t0), mallocCount()-m0
		}
	})
	return s
}

// runProbe runs p once to warm and size it, then a calibrated batch. With
// once set (the smoke test) the single repetition is the measurement.
func runProbe(p probe, once bool) (s probeSample, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe %s: %v", p.name, r)
		}
	}()
	s = p.run(1)
	if once || s.elapsed >= probeTarget {
		return s, nil
	}
	perOp := s.elapsed / time.Duration(s.ops)
	reps := probeMaxReps
	if perOp > 0 {
		reps = int(probeTarget / perOp)
	}
	reps = min(max(reps, 2), probeMaxReps)
	return p.run(reps), nil
}

// probeMetrics runs every probe and returns <probe>.ns_op and
// <probe>.allocs_op, plus the probes that failed.
func probeMetrics(once bool) (map[string]float64, []error) {
	out := map[string]float64{}
	var errs []error
	for _, p := range probes {
		s, err := runProbe(p, once)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out[p.name+".ns_op"] = float64(s.elapsed.Nanoseconds()) / float64(s.ops)
		out[p.name+".allocs_op"] = float64(s.allocs) / float64(s.ops)
	}
	return out, errs
}

// sink keeps the result of a pure probed call alive so the compiler cannot
// drop the call. Only single-goroutine probes write it.
var sink float64

type inlineMsg struct{ a, b, c uint64 } // 24 bytes: travels inline in the envelope

const probeTag = 77

// hashKeys fills keys with a fresh pseudo-random permutation-like sequence.
func hashKeys(keys []uint64, salt uint64) {
	for i := range keys {
		keys[i] = splitmix64(salt + uint64(i))
	}
}

func identityKey(k uint64) uint64 { return k }

// sortProbe measures one psort strategy on 64 ranks of 512 keys. almost
// selects nearly sorted input (each rank's keys inside its own range, one in
// eight displaced) instead of uniformly random keys.
func sortProbe(almost bool, strategy func(c *vmpi.Comm, items []uint64, key func(uint64) uint64) []uint64) func(int) probeSample {
	return func(reps int) probeSample {
		const n = 512
		return worldProbe(torusWorld(64), reps, func(c *vmpi.Comm, i int) {
			keys := make([]uint64, n)
			hashKeys(keys, uint64(c.Rank()*n)+uint64(i+1)<<32)
			if almost {
				width := uint64(1) << 20
				for j, k := range keys {
					home := uint64(c.Rank())
					if k&7 == 0 && home+1 < uint64(c.Size()) {
						home++
					}
					keys[j] = home*width + k%width
				}
			}
			strategy(c, keys, identityKey)
		})
	}
}

// planProbe measures NewPlan + Execute + Free of a 256-record scatter.
func planProbe(ranks int, opts func(c *vmpi.Comm) redist.Options, target func(c *vmpi.Comm, k uint64) int) func(int) probeSample {
	return func(reps int) probeSample {
		const n = 256
		return worldProbe(torusWorld(ranks), reps, func(c *vmpi.Comm, i int) {
			items := make([]denseRec, n)
			for j := range items {
				items[j].key = splitmix64(uint64(c.Rank()*n+j) + uint64(i+1)<<32)
			}
			plan := redist.NewPlan(c, n, redist.ToRank(func(j int) int { return target(c, items[j].key) }), opts(c))
			redist.Execute(plan, items)
			plan.Free()
		})
	}
}

func hashTarget(c *vmpi.Comm, k uint64) int { return int(k % uint64(c.Size())) }

// silica750 is one rank's share of the MD workloads' system: 6000/8 particles
// at the paper's density.
func silica750() *particle.System {
	return particle.SilicaMelt(750, mdSpacing*math.Cbrt(750), true, 42)
}

var probes = []probe{
	{"rankexec.park_unpark", movesMsg, func(reps int) probeSample {
		var ex *rankexec.Executor
		ex = rankexec.New(2, func(id int) {
			for i := 0; i < reps; i++ {
				if id == 0 {
					ex.Unpark(1)
					ex.Park(0)
				} else {
					ex.Park(1)
					ex.Unpark(0)
				}
			}
		}, rankexec.Options{Workers: 1, OnDeadlock: func([]int) { panic("park/unpark probe deadlocked") }})
		return timeOps(2*reps, func() { ex.Start(); ex.Wait() })
	}},
	{"rankexec.spawn_16384", movesNbr, func(reps int) probeSample {
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				ex := rankexec.New(16384, func(int) {}, rankexec.Options{Workers: 1})
				ex.Start()
				ex.Wait()
			}
		})
	}},
	{"vmpi.pingpong_inline", movesMsg, func(reps int) probeSample {
		return worldProbe(switchedWorld(2), reps, func(c *vmpi.Comm, i int) {
			peer := 1 - c.Rank()
			if c.Rank() == 0 {
				vmpi.SendVal(c, inlineMsg{a: uint64(i)}, peer, probeTag)
				vmpi.RecvVal[inlineMsg](c, peer, probeTag)
			} else {
				m := vmpi.RecvVal[inlineMsg](c, peer, probeTag)
				vmpi.SendVal(c, m, peer, probeTag)
			}
		})
	}},
	{"vmpi.pingpong_pooled", movesMsg, func(reps int) probeSample {
		buf := make([]uint64, 1024) // 8 KiB: above the inline limit, pooled
		return worldProbe(switchedWorld(2), reps, func(c *vmpi.Comm, i int) {
			peer := 1 - c.Rank()
			if c.Rank() == 0 {
				vmpi.Send(c, buf, peer, probeTag)
				vmpi.Release(vmpi.Recv[uint64](c, peer, probeTag))
			} else {
				got := vmpi.Recv[uint64](c, peer, probeTag)
				vmpi.Send(c, got, peer, probeTag)
				vmpi.Release(got)
			}
		})
	}},
	{"vmpi.barrier_p1024", movesMsg, func(reps int) probeSample {
		return worldProbe(torusWorld(1024), reps, func(c *vmpi.Comm, i int) { vmpi.Barrier(c) })
	}},
	{"vmpi.allreduce_p1024", movesMsg, func(reps int) probeSample {
		return worldProbe(torusWorld(1024), reps, func(c *vmpi.Comm, i int) {
			vmpi.AllreduceVal(c, int64(c.Rank()), vmpi.Sum[int64])
		})
	}},
	{"vmpi.allgather_p1024", movesMerge, func(reps int) probeSample {
		return worldProbe(torusWorld(1024), reps, func(c *vmpi.Comm, i int) {
			vmpi.Release(vmpi.Allgather(c, []uint64{uint64(c.Rank())}))
		})
	}},
	{"vmpi.alltoall_owned_p64", movesMDPnfft, func(reps int) probeSample {
		return worldProbe(torusWorld(64), reps, func(c *vmpi.Comm, i int) {
			parts := make([][]float64, c.Size())
			for r := range parts {
				parts[r] = make([]float64, 256) // 2 KiB per destination
			}
			vmpi.ReleaseBlocks(vmpi.AlltoallOwned(c, parts))
		})
	}},
	{"vmpi.cart_create_p4096", movesNbr, func(reps int) probeSample {
		return worldProbe(torusWorld(4096), reps, func(c *vmpi.Comm, i int) {
			vmpi.CartCreate(c, []int{c.Size()}, []bool{false})
		})
	}},
	{"vmpi.empty_world_p16384", movesNbr, func(reps int) probeSample {
		cfg := torusWorld(16384)
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				vmpi.Run(cfg, func(*vmpi.Comm) {})
			}
		})
	}},
	{"netmodel.torus_cost", movesMsg, func(reps int) probeSample {
		m := netmodel.NewTorus(4096)
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				sink += m.Cost(i&4095, (i*7919)&4095, 1024)
			}
		})
	}},
	{"netmodel.switched_cost", movesMsg, func(reps int) probeSample {
		m := netmodel.NewSwitched()
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				sink += m.Cost(i&7, (i*7919)&7, 1024)
			}
		})
	}},
	{"redist.plan_dense_p256", movesDense, planProbe(256,
		func(*vmpi.Comm) redist.Options { return redist.Options{MaxBytes: -1} }, hashTarget)},
	{"redist.plan_budget_p256", movesDense, planProbe(256,
		func(*vmpi.Comm) redist.Options { return redist.Options{MaxBytes: 2 << 10} }, hashTarget)},
	{"redist.plan_nbr_p1024", movesNbrWall, func(reps int) probeSample {
		// The neighbor set is per rank, so each rank builds its Cart once
		// (the unmeasured first call) and keeps it for the measured plans.
		nbrs := make([][]int, 1024)
		return planProbe(1024,
			func(c *vmpi.Comm) redist.Options {
				if nbrs[c.Rank()] == nil {
					nbrs[c.Rank()] = vmpi.CartCreate(c, []int{c.Size()}, []bool{false}).Neighbors(1)
				}
				return redist.Options{MaxBytes: -1, Neighbors: nbrs[c.Rank()]}
			},
			func(c *vmpi.Comm, k uint64) int {
				// Stay, or move one rank up or down, clamped at the ends.
				return min(max(c.Rank()+int(k%3)-1, 0), c.Size()-1)
			})(reps)
	}},
	{"redist.resort_floats_p64", movesCouple, func(reps int) probeSample {
		const n, stride = 512, 3
		return worldProbe(switchedWorld(64), reps, func(c *vmpi.Comm, i int) {
			p, r := c.Size(), c.Rank()
			vals := make([]float64, n*stride)
			idx := make([]redist.Index, n)
			for j := range idx {
				// Particle j goes to rank (r+j)%p; slot (j/p)*p+r is unique there.
				idx[j] = redist.MakeIndex((r+j)%p, (j/p)*p+r)
			}
			redist.ResortFloats(c, vals, stride, idx, n)
		})
	}},
	{"redist.remap_blocks_p64_to_48", movesNone, func(reps int) probeSample {
		return worldProbe(switchedWorld(64), reps, func(c *vmpi.Comm, i int) {
			redist.RemapBlocks(c, make([]denseRec, 512), 48)
		})
	}},
	{"psort.local_sort_4096", movesMerge, func(reps int) probeSample {
		keys := make([]uint64, 4096)
		return worldProbe(switchedWorld(1), reps, func(c *vmpi.Comm, i int) {
			hashKeys(keys, uint64(i+1)<<32)
			psort.LocalSort(c, keys, identityKey)
		})
	}},
	{"psort.partition_p64", movesMDFmm, sortProbe(false, psort.SortPartition[uint64])},
	{"psort.merge_p64", movesMerge, sortProbe(true, psort.SortMerge[uint64])},
	{"psort.rotational_p64", movesNone, sortProbe(true, psort.SortRotational[uint64])},
	{"fft.transform_1024", movesMDPnfft, func(reps int) probeSample {
		a := make([]complex128, 1024)
		for i := range a {
			a[i] = complex(float64(i%17), float64(i%5))
		}
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				fft.Transform(a, i&1 == 1)
			}
		})
	}},
	{"fft.transform3d_32", movesMDPnfft, func(reps int) probeSample {
		a := make([]complex128, 32*32*32)
		for i := range a {
			a[i] = complex(float64(i%17), float64(i%5))
		}
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				fft.Transform3D(a, 32, 32, 32, i&1 == 1)
			}
		})
	}},
	{"fft.slab_p8_32", movesMDPnfft, func(reps int) probeSample {
		slabs := make([]*fft.Slab, 8)
		data := make([][]complex128, 8)
		return worldProbe(torusWorld(8), reps, func(c *vmpi.Comm, i int) {
			r := c.Rank()
			if slabs[r] == nil {
				slabs[r] = fft.NewSlab(c, 32, 32, 32)
				data[r] = make([]complex128, slabs[r].LocalXSize()*32*32)
			}
			slabs[r].Inverse(slabs[r].Forward(data[r]))
		})
	}},
	{"fmm.m2l", movesMDFmm, func(reps int) probeSample {
		tab := fmm.NewTables(6) // the order accuracy 1e-3 selects
		n := tab.NCoef()
		m, b, l := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range m {
			m[i] = 1 / float64(i+1)
		}
		tab.Deriv(2, 1, 0.5, b)
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				tab.M2L(m, b, l)
			}
			sink += l[0]
		})
	}},
	{"fmm.solve_serial_750", movesMDFmm, func(reps int) probeSample {
		s := silica750()
		tab := fmm.NewTables(6)
		pot, field := make([]float64, s.N), make([]float64, 3*s.N)
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				fmm.SolveSerial(tab, s.Box, 2, s.Pos, s.Q, pot, field)
			}
			sink += pot[0]
		})
	}},
	{"pnfft.solve_p1_750", movesMDPnfft, func(reps int) probeSample {
		s := silica750()
		var solver *pnfft.Solver
		return worldProbe(torusWorld(1), reps, func(c *vmpi.Comm, i int) {
			in := api.Input{N: s.N, Cap: s.N, Pos: s.Pos, Q: s.Q, MaxMove: -1}
			if solver == nil {
				solver = pnfft.New(c, s.Box, mdAccuracy)
				if err := solver.Tune(in); err != nil {
					panic(err)
				}
			}
			if _, err := solver.Run(in); err != nil {
				panic(err)
			}
		})
	}},
	{"hostpar.for_overhead", movesMD, func(reps int) probeSample {
		return timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				hostpar.For(64, 1, func(lo, hi int) {})
			}
		})
	}},
	{"sched.job_overhead", movesNone, func(reps int) probeSample {
		jobs := make([]func() int, reps)
		for i := range jobs {
			jobs[i] = func() int { return i }
		}
		return timeOps(reps, func() { sink += float64(len(sched.Run(sched.Options{}, jobs))) })
	}},
}
