package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few cores of a shared machine. Its
// neighbours slow every program on it by up to a factor 2.5 for minutes at a
// time (README.md, "Host and steadiness"): no statistic of plain wall-clock
// samples taken inside a run of a minute or less repeats from run to run.
// So the harness reads the host's speed beside every measurement with a
// fixed reference kernel, and reports wall_s and setup_s as the seconds the
// same work would have taken on the quiet reference host. The kernel is
// frozen here, in the benchmark's own files: a change to the program cannot
// move it.

// quietHostSeconds is what hostProbe.seconds reads on the quiet reference
// host (the minimum over the recordings the README describes).
const quietHostSeconds = 0.205

// quietSeconds converts a measured duration to quiet-reference-host seconds,
// given the reference kernel's reading while it was measured and the share
// of the kernel's slow-down the workload takes (workloadDef.HostShare).
func quietSeconds(measured, hostSeconds, share float64) float64 {
	return measured * math.Pow(quietHostSeconds/hostSeconds, share)
}

// offHeap returns n zeroed values of T outside the Go heap, so that the
// probe's tables do not show in peak_live_heap_bytes.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bench: mmap: " + err.Error())
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

const (
	probeChaseLen  = 2 << 20 // 8 MB of uint32: past the L2, inside the L3
	probeStreamLen = 2 << 20 // 16 MB of uint64 per thread
	probeSortLen   = 300_000
	probeMatN      = 64
	probePairs     = 64
	probeReps      = 8 // a -quick run does one
)

// hostProbe is the reference kernel: five fixed pieces of work, each run on
// every P at once the way the workloads load the host, whose summed time
// reads the host's speed.
type hostProbe struct {
	procs  int
	chase  []uint32   // one cycle through all of it
	stream [][]uint64 // per thread
	keys   []uint64
	sorted [][]uint64 // per thread
	matA   [probeMatN * probeMatN]float64
	matB   [probeMatN * probeMatN]float64
	sink   uint64
}

var hostProbeOnce = sync.OnceValue(func() *hostProbe {
	p := &hostProbe{procs: runtime.GOMAXPROCS(0)}
	x := uint64(12345)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	// Sattolo's shuffle: a permutation that is one cycle.
	p.chase = offHeap[uint32](probeChaseLen)
	for i := range p.chase {
		p.chase[i] = uint32(i)
	}
	for i := len(p.chase) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		p.chase[i], p.chase[j] = p.chase[j], p.chase[i]
	}
	p.keys = offHeap[uint64](probeSortLen)
	for i := range p.keys {
		p.keys[i] = next()
	}
	for t := 0; t < p.procs; t++ {
		s := offHeap[uint64](probeStreamLen)
		for i := range s {
			s[i] = uint64(i)
		}
		p.stream = append(p.stream, s)
		p.sorted = append(p.sorted, offHeap[uint64](probeSortLen))
	}
	for i := range p.matA {
		p.matA[i] = float64(i%7) * 0.25
		p.matB[i] = float64(i%5) * 0.5
	}
	// The first reading pays for new stacks and a cold cache; discard one.
	p.seconds(true)
	return p
})

// probeNode is what the ping-pong part allocates and hands over.
type probeNode struct {
	next *probeNode
	pad  [6]uint64
}

// onEveryP runs f on procs goroutines at once and waits for all of them.
func (p *hostProbe) onEveryP(f func(t int) uint64) {
	out := make(chan uint64, p.procs)
	for t := 0; t < p.procs; t++ {
		go func() { out <- f(t) }()
	}
	for t := 0; t < p.procs; t++ {
		p.sink += <-out
	}
}

// seconds runs the reference kernel once. quick cuts the work to an eighth
// (the smoke test only needs the code to run).
func (p *hostProbe) seconds(quick bool) float64 {
	reps := probeReps
	if quick {
		reps = 1
	}
	start := time.Now()
	// Dependent loads through 8 MB: cache shared with the neighbours.
	p.onEveryP(func(t int) uint64 {
		j := uint32(t * 7777)
		for i := 0; i < reps*125_000; i++ {
			j = p.chase[j]
		}
		return uint64(j)
	})
	// A small matrix product out of the L1: the core's arithmetic units,
	// shared with whatever runs on the sibling thread.
	p.onEveryP(func(int) uint64 {
		var out [probeMatN * probeMatN]float64
		for r := 0; r < reps*20; r++ {
			for i := 0; i < probeMatN; i++ {
				for k := 0; k < probeMatN; k++ {
					aik := p.matA[i*probeMatN+k]
					for j := 0; j < probeMatN; j++ {
						out[i*probeMatN+j] += aik * p.matB[k*probeMatN+j]
					}
				}
			}
		}
		return uint64(out[5])
	})
	// A comparison sort: branches and scattered moves.
	p.onEveryP(func(t int) uint64 {
		k := p.sorted[t][:len(p.keys)*reps/probeReps]
		copy(k, p.keys)
		sort.Slice(k, func(i, j int) bool { return k[i] < k[j] })
		return k[7]
	})
	// Streaming reads: memory traffic.
	p.onEveryP(func(t int) uint64 {
		var s uint64
		for r := 0; r < reps*3/2; r++ {
			for _, v := range p.stream[t] {
				s += v
			}
		}
		return s
	})
	// Goroutine pairs handing freshly allocated nodes back and forth:
	// scheduler, allocator and collector, as the rank executor uses them.
	done := make(chan uint64, probePairs)
	for pair := 0; pair < probePairs; pair++ {
		go func() {
			ping, pong := make(chan *probeNode), make(chan *probeNode)
			go func() {
				for v := range ping {
					pong <- &probeNode{next: v}
				}
			}()
			var n uint64
			for i := 0; i < reps*190; i++ {
				ping <- &probeNode{}
				n += (<-pong).pad[0] + 1
			}
			close(ping)
			done <- n
		}()
	}
	for pair := 0; pair < probePairs; pair++ {
		p.sink += <-done
	}
	return time.Since(start).Seconds()
}

// hostSeconds reads the host's speed now.
func hostSeconds(quick bool) float64 { return hostProbeOnce().seconds(quick) }
