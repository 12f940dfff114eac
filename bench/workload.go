package main

import (
	"fmt"
	"math"

	"repro/internal/netmodel"
	"repro/internal/vmpi"
)

// Virtual is a workload's virtual result: what the simulated machine
// computed and how long it took in virtual seconds. It is the invariant of
// the benchmark — identical on every iteration, host, worker count and
// commit that only changes host performance — and is what expected.json
// pins for the default seed.
type Virtual struct {
	// Digest is the final-state SHA-256 for md-* (the paperbench.Run
	// digest) and an order-sensitive global checksum of the final element
	// sequence for the synthetic workloads.
	Digest string `json:"digest"`
	// VirtualBits is the IEEE-754 bit pattern of VirtualSeconds: the
	// last step's virtual Total for md-*, Stats.MaxClock() otherwise.
	VirtualBits    string  `json:"virtual_bits"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	// Messages and Bytes are the exact sums of Stats.MessagesSent and
	// Stats.BytesSent.
	Messages int64 `json:"vmpi.messages"`
	Bytes    int64 `json:"vmpi.bytes"`
}

func (v *Virtual) setSeconds(s float64) {
	v.VirtualSeconds = s
	v.VirtualBits = fmt.Sprintf("%#016x", math.Float64bits(s))
}

// instance is one workload with its inputs generated: everything the
// program under test receives. The harness owns the rank body, the timers
// and the checks; the instance only says what one iteration is.
type instance interface {
	// world is the virtual machine one iteration runs on.
	world() vmpi.Config
	// body returns the rank body of one iteration. tr is nil on untraced
	// iterations.
	body(tr *tracer) func(c *vmpi.Comm)
	// check runs the oracle checks on a finished world and returns its
	// virtual result and the workload's own layer counts.
	check(st *vmpi.Stats) (Virtual, map[string]float64, error)
	// work is the amount of work in one iteration, in the unit workDef
	// names.
	work() float64
}

// workloadDef is a workload as BENCHMARK.json lists it.
type workloadDef struct {
	Name string
	Why  string
	// WorkUnit names the work-per-second figure printed beside wall_s.
	WorkUnit string
	// HostShare is the share of the reference kernel's slow-down on a busy
	// host that this workload takes (hostspeed.go): the exponent at which
	// the ten-run medians of sets recorded in quiet and in loaded hours
	// agree best (README.md, "Host and steadiness").
	HostShare float64
	// prepare generates the inputs from the seed. quick cuts every size to
	// at most 1/16 for the smoke test.
	prepare func(seed int64, quick bool) instance
}

// hostShare fits four of the five workloads: the program's kernels and
// exchanges feel a busy neighbour somewhat less than the reference kernel,
// whose parts are picked to feel it. bigp-merge, whose 4096 ranks hand every
// message across threads through a 180 MB heap, feels it more.
const (
	hostShare      = 0.85
	hostShareMerge = 1.1
)

var workloads = []workloadDef{
	{
		Name:      "md-fmm",
		Why:       "Fig 9-left: fmm kernels under hostpar dominate, method B resort; messaging work must not show here",
		WorkUnit:  "particle-steps/s",
		HostShare: hostShare,
		prepare:   func(seed int64, quick bool) instance { return newMD(mdFMM, seed, quick) },
	},
	{
		Name:      "md-pnfft",
		Why:       "Fig 9-right: pnfft+fft kernels and slab/mesh all-to-alls, method A restore (coupling used the other way)",
		WorkUnit:  "particle-steps/s",
		HostShare: hostShare,
		prepare:   func(seed int64, quick bool) instance { return newMD(mdPNFFT, seed, quick) },
	},
	{
		Name:      "bigp-merge",
		Why:       "Fig 10-left cell, 4096 ranks: zero kernel time; psort merge-exchange, vmpi p2p and rankexec park/unpark do all the work",
		WorkUnit:  "rank-steps/s",
		HostShare: hostShareMerge,
		prepare:   func(seed int64, quick bool) instance { return newBigP(true, seed, quick) },
	},
	{
		Name:      "bigp-nbr",
		Why:       "Fig 10-right cell, 16384 ranks, 12 messages per rank: world start-up, rank spawn, CartCreate and sparse plans dominate",
		WorkUnit:  "rank-steps/s",
		HostShare: hostShare,
		prepare:   func(seed int64, quick bool) instance { return newBigP(false, seed, quick) },
	},
	{
		Name:      "exchange-dense",
		Why:       "512-rank dense all-to-all redist.Plan, alternating unbounded and budgeted rounds: the two paths ROADMAP 2 wants collapsed",
		WorkUnit:  "rank-steps/s",
		HostShare: hostShare,
		prepare:   func(seed int64, quick bool) instance { return newDense(seed, quick) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// The two machines of the paper, as paperbench models them.
func switchedWorld(ranks int) vmpi.Config {
	return vmpi.Config{Ranks: ranks, Model: netmodel.NewSwitched(), ComputeScale: 1.0}
}

func torusWorld(ranks int) vmpi.Config {
	return vmpi.Config{Ranks: ranks, Model: netmodel.NewTorus(ranks), ComputeScale: 2.5}
}

// splitmix64 is the SplitMix64 mixer: deterministic, location-independent
// key generation, drift and checksums.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// multiset is an order-insensitive checksum of a collection of keys: equal
// for any two arrangements of the same multiset.
type multiset struct {
	count int
	sum   uint64
}

func (m *multiset) add(k uint64) {
	m.count++
	m.sum += splitmix64(k)
}

// seqHash is an order-sensitive checksum: it pins the exact global element
// sequence (rank order, then local order).
type seqHash uint64

func (h *seqHash) add(k uint64) { *h = seqHash((uint64(*h) ^ k) * 0x100000001b3) }

func (h seqHash) String() string { return fmt.Sprintf("%016x", uint64(h)) }
