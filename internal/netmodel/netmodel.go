// Package netmodel provides network performance models for the virtual MPI
// runtime (package vmpi).
//
// The paper's experiments run on two machines with qualitatively different
// interconnects:
//
//   - JuRoPA: a commodity cluster with a switched QDR InfiniBand fabric.
//     On a switched fabric every pair of ranks communicates at (roughly) the
//     same latency and bandwidth, so neighborhood communication has no
//     advantage over all-to-all exchanges (paper §IV-D, left).
//   - Juqueen: an IBM Blue Gene/Q whose ranks are connected by a 5D torus.
//     On a torus, message cost grows with the hop distance between ranks, so
//     nearest-neighbor exchanges are much cheaper than global all-to-all
//     traffic (paper §IV-D, right).
//
// A Model maps (source rank, destination rank, message size) to a transfer
// time in virtual seconds. Models are pure functions of their arguments;
// the vmpi runtime combines them with per-rank injection (send port
// serialization) costs to advance virtual clocks.
package netmodel

import (
	"fmt"
	"math/bits"
)

// Model is a network performance model. Implementations must be safe for
// concurrent use; all methods are pure.
type Model interface {
	// Cost returns the in-flight network time in seconds for a message of
	// the given size in bytes travelling from rank src to rank dst.
	Cost(src, dst, bytes int) float64
	// Injection returns the time in seconds the sender's network port is
	// occupied injecting a message of the given size. The sender cannot
	// start another send before this time has elapsed.
	Injection(bytes int) float64
	// Name identifies the model in reports.
	Name() string
}

// Switched models a flat, switched fabric (JuRoPA-like): uniform latency and
// bandwidth between every pair of ranks. Distance between ranks is
// irrelevant, which is exactly why the paper observes no benefit from
// neighborhood communication on JuRoPA.
type Switched struct {
	// Latency is the end-to-end latency per message in seconds.
	Latency float64
	// Bandwidth is the per-link bandwidth in bytes per second.
	Bandwidth float64
	// InjectionBandwidth is the rate at which a rank's port injects data,
	// in bytes per second. It serializes concurrent sends from one rank.
	InjectionBandwidth float64
}

// NewSwitched returns a Switched model with QDR-InfiniBand-like parameters
// as seen by one MPI process: ~2.5 µs latency and a per-process bandwidth
// share of about 1 GB/s (JuRoPA ran 8 processes per node on one QDR HCA).
func NewSwitched() *Switched {
	return &Switched{
		Latency:            2.5e-6,
		Bandwidth:          1e9,
		InjectionBandwidth: 1e9,
	}
}

// Cost implements Model.
func (s *Switched) Cost(src, dst, bytes int) float64 {
	if src == dst {
		return localCopyCost(bytes)
	}
	return s.Latency + float64(bytes)/s.Bandwidth
}

// Injection implements Model.
func (s *Switched) Injection(bytes int) float64 {
	return float64(bytes) / s.InjectionBandwidth
}

// Name implements Model.
func (s *Switched) Name() string { return "switched" }

// Torus models a k-ary d-dimensional torus (Juqueen-like). Ranks are mapped
// to torus coordinates in row-major order; messages are routed dimension
// ordered and pay a per-hop latency as well as a per-hop bandwidth penalty
// that stands in for link sharing on long routes. Nearest neighbors in the
// torus therefore communicate much more cheaply than distant ranks.
//
// A Torus is built by NewTorus, which precomputes what Cost needs per hop
// count; it is read-only afterwards.
type Torus struct {
	// dims are the torus dimensions, each a power of two; shift[i] is
	// log2(dims[i]). Their product covers the ranks in use (ranks beyond
	// it are rejected by Validate).
	dims  []int
	shift []uint
	// byHops[h] is the latency and effective bandwidth of an h-hop route,
	// for every h Hops can return.
	byHops []route
}

// The torus's Blue Gene/Q-like parameters.
const (
	torusBaseLatency = 0.8e-6 // fixed per-message overhead, s
	torusHopLatency  = 0.1e-6 // added latency per traversed hop, s
	torusBandwidth   = 2e9    // single-link bandwidth, bytes/s
	// torusHopPenalty scales the effective transfer time per extra hop,
	// modelling contention of long routes on shared links.
	torusHopPenalty = 0.35
	// torusInjection is the per-rank port injection rate in bytes/s: 16
	// processes per node share the torus links.
	torusInjection = 1e9
)

// route is what an h-hop message pays: latency torusBaseLatency +
// h·torusHopLatency and bandwidth torusBandwidth/(1 + torusHopPenalty·(h−1)).
type route struct{ latency, bandwidth float64 }

// NewTorus returns a Torus model for the given number of ranks with Blue
// Gene/Q-like parameters: sub-microsecond neighbor latency, 2 GB/s links.
// The torus dimensions are chosen automatically as a near-cubic 3D shape
// (a 3D stand-in for BG/Q's 5D torus; the hop-distance distribution is what
// matters for the redistribution experiments).
func NewTorus(ranks int) *Torus {
	t := &Torus{dims: nearCubicDims(ranks, 3)}
	t.shift = make([]uint, len(t.dims))
	longest := 0 // half of every dimension
	for i, n := range t.dims {
		t.shift[i] = uint(bits.TrailingZeros(uint(n)))
		longest += n / 2
	}
	// Distinct ranks are at least one hop apart (Hops), even on one node.
	t.byHops = make([]route, max(longest, 1)+1)
	for h := 1; h < len(t.byHops); h++ {
		t.byHops[h] = route{
			latency:   torusBaseLatency + float64(h)*torusHopLatency,
			bandwidth: torusBandwidth / (1 + torusHopPenalty*float64(h-1)),
		}
	}
	return t
}

// Cost implements Model: the route's latency plus the transfer time at its
// effective bandwidth, both from the table NewTorus built.
func (t *Torus) Cost(src, dst, bytes int) float64 {
	if src == dst {
		return localCopyCost(bytes)
	}
	r := &t.byHops[t.Hops(src, dst)]
	return r.latency + float64(bytes)/r.bandwidth
}

// Injection implements Model.
func (t *Torus) Injection(bytes int) float64 {
	return float64(bytes) / torusInjection
}

// Name implements Model.
func (t *Torus) Name() string { return "torus" }

// Hops returns the dimension-ordered routing distance between two ranks.
// The per-dimension coordinates (row-major, last dimension fastest) are
// peeled off inline with a mask and a shift per dimension, as every
// dimension is a power of two — this runs once per message in the network
// model, so it must not allocate.
//
//parlint:hotalloc
func (t *Torus) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	hops := 0
	for i := len(t.dims) - 1; i >= 0; i-- {
		n, s := t.dims[i], t.shift[i]
		d := src&(n-1) - dst&(n-1)
		src >>= s
		dst >>= s
		if d < 0 {
			d = -d
		}
		if w := n - d; w < d { // wrap-around is shorter
			d = w
		}
		hops += d
	}
	if hops == 0 {
		// Distinct ranks mapped to the same coordinates can only happen if
		// the dims do not cover the rank space; treat as one hop.
		hops = 1
	}
	return hops
}

// MaxRanks returns the number of ranks the torus covers.
func (t *Torus) MaxRanks() int {
	n := 1
	for _, d := range t.dims {
		n *= d
	}
	return n
}

// nearCubicDims factors n into dims near-cubic dimensions, each a power of
// two, whose product is at least n, preferring balanced factors. For powers
// of two the product is exactly n.
func nearCubicDims(n, dims int) []int {
	if n < 1 {
		n = 1
	}
	if dims < 1 {
		dims = 1
	}
	d := make([]int, dims)
	for i := range d {
		d[i] = 1
	}
	// Repeatedly double the smallest dimension until the product covers n.
	for product(d) < n {
		small := 0
		for i := 1; i < dims; i++ {
			if d[i] < d[small] {
				small = i
			}
		}
		d[small] *= 2
	}
	return d
}

func product(d []int) int {
	p := 1
	for _, v := range d {
		p *= v
	}
	return p
}

// localCopyCost models a rank sending a message to itself: a memcpy at
// memory bandwidth, with no network latency.
func localCopyCost(bytes int) float64 {
	const memBandwidth = 8e9 // bytes per second
	return float64(bytes) / memBandwidth
}

// Validate checks that the model can serve the given number of ranks.
func Validate(m Model, ranks int) error {
	if t, ok := m.(*Torus); ok {
		if t.MaxRanks() < ranks {
			return fmt.Errorf("netmodel: torus %v covers %d ranks, need %d", t.dims, t.MaxRanks(), ranks)
		}
	}
	return nil
}
