// Package vmpi implements a virtual MPI: a deterministic, in-process
// message-passing runtime that stands in for MPI on a distributed-memory
// cluster.
//
// The paper's algorithms (parallel sorting, fine-grained particle
// redistribution, all-to-all vs. neighborhood exchange) are defined by which
// messages of which sizes flow between which ranks. vmpi executes the real
// data movement — every rank runs arbitrary Go code on private memory, and
// message payloads are deep-copied between ranks (an Allreduce or Allgather
// result is one immutable buffer every rank shares read-only) — while
// charging communication and computation to per-rank virtual clocks:
//
//   - A send occupies the sender's port for an injection time given by the
//     network model and puts the message in flight; it arrives at
//     sendStart + Model.Cost(src, dst, bytes).
//   - A receive completes at max(receiver clock, arrival time), so causality
//     and load imbalance propagate exactly as on a real machine.
//   - Computation is charged explicitly via Comm.Compute.
//
// Collectives are charged as the messages of standard algorithms (binomial
// trees, ring or tree allgather, pairwise or linear all-to-all, dissemination
// barrier), so their virtual cost emerges from the network model rather than
// being postulated; every collective, and Resize's release, replays those
// messages' clocks in one rendezvous (rendezvous.go), which Replay opens to
// a caller's algorithm (psort's merge-exchange and rotational sorts). On a
// switched model, neighborhood exchanges gain nothing; on a torus model
// they do — matching the paper's JuRoPA vs. Juqueen observations.
//
// Ranks execute under an event-driven executor (internal/rankexec): a
// rank's body is arbitrary Go code, so a goroutine is the only resumable
// stack available, but runnability is explicit. A rank is parked when its
// receive finds no matching message and re-enqueued when a delivery
// arrives, and runnable ranks are multiplexed over a bounded set of run
// slots — one base slot plus extras try-acquired from the process-wide
// hostpar budget, the same pool the experiment scheduler and hostpar.For's
// workers draw from. Rank goroutines are spawned lazily on first
// dispatch, which bounds resident stacks only until ranks first wait: a
// parked rank keeps its goroutine, so a world whose ranks all park once
// holds one stack per rank.
//
// The world is elastic: Resize grows or shrinks the set of live ranks
// mid-run (see resize.go). Each resize starts a new epoch — a fresh world
// membership with its own communicator context — while rank identities
// (instances) stay stable, so observability streams and final statistics
// cover every rank that ever lived.
//
// Virtual time is deterministic: it is a pure function of the program's
// communication structure and charged computation. Parking a rank changes
// when its host code runs, never what it computes, so results are
// bit-identical at any run-slot count and under any host scheduling.
package vmpi

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/hostpar"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/rankexec"
)

// Fixed per-message CPU overheads in seconds (the "o" of the LogP family).
const (
	sendOverhead = 0.3e-6
	recvOverhead = 0.3e-6
)

// Runtime is a virtual machine of ranks connected by a network model.
type Runtime struct {
	model netmodel.Model
	// computeScale multiplies all Compute charges, modelling slower or
	// faster cores (e.g. Blue Gene/Q A2 vs. Xeon).
	computeScale float64
	// trace is Config.Trace: every rank buffer keeps its event list, and
	// point-to-point messages are recorded into it.
	trace bool
	// maxRanks bounds the world size Resize may grow to; the network model
	// is validated against it once at Run.
	maxRanks int
	// maxExchangeBytes is Config.MaxExchangeBytes, the one staging budget
	// every rank reads (Comm.MaxExchangeBytes), ranks admitted by Resize
	// included.
	maxExchangeBytes int64
	// f is the rank body; Resize re-invokes it for admitted ranks.
	f func(c *Comm)

	// mu guards world, which rank 0 of a resize swaps while every other
	// rank is quiescent, and rdv, each communicator's rendezvous by context.
	// All cross-goroutine reads go through a lock so the swap is race-free
	// even though it is logically serialized by the resize collective.
	mu    sync.Mutex
	world *epochWorld
	rdv   map[int64]*rendezvous

	// exec is the rank executor. Written once before any rank runs.
	exec *rankexec.Executor
}

// Config parameterizes a virtual machine.
type Config struct {
	// Ranks is the number of MPI ranks the world starts with.
	Ranks int
	// MaxRanks bounds the world size Resize may grow to; 0 means Ranks
	// (a fixed-capacity machine). The network model must cover MaxRanks.
	MaxRanks int
	// Model is the network model; nil selects netmodel.NewSwitched().
	Model netmodel.Model
	// ComputeScale multiplies computation charges; 0 means 1.0.
	ComputeScale float64
	// Trace keeps the run's event list in Stats.Events: phase, collective
	// and barrier spans, counter and gauge samples, and every
	// point-to-point message as send/arrive events — what the exporters
	// and the per-event Log views read. Without it a rank keeps only its
	// counter sums and gauge maxima.
	Trace bool
	// Workers, when positive, fixes the executor's run-slot count instead
	// of drawing one base slot plus budget extras. It bounds host
	// concurrency only; virtual results are unaffected.
	Workers int
	// MaxExchangeBytes is the per-rank staging budget for redistribution
	// exchanges in bytes: planners in internal/redist decompose any exchange
	// whose per-destination send buffers would exceed it into
	// bounded-footprint rounds. 0 (the default) leaves exchanges unbounded;
	// negative panics. It holds for the whole run: ranks admitted by
	// Resize read the same value.
	MaxExchangeBytes int64
}

// Run executes f on every rank of a virtual machine described by cfg and
// returns aggregated statistics. It panics if the configuration is invalid
// (e.g. a torus model that cannot cover the rank count), and re-raises the
// first rank panic — including the deadlock verdict — in the caller's
// goroutine.
func Run(cfg Config, f func(c *Comm)) *Stats {
	n := cfg.Ranks
	if n < 1 {
		panic("vmpi: Run needs at least 1 rank")
	}
	maxRanks := cfg.MaxRanks
	if maxRanks == 0 {
		maxRanks = n
	}
	if maxRanks < n {
		panic("vmpi: MaxRanks below Ranks")
	}
	model := cfg.Model
	if model == nil {
		model = netmodel.NewSwitched()
	}
	if err := netmodel.Validate(model, maxRanks); err != nil {
		panic(err)
	}
	scale := cfg.ComputeScale
	if scale == 0 {
		scale = 1
	}
	if cfg.MaxExchangeBytes < 0 {
		panic("vmpi: negative MaxExchangeBytes")
	}
	rt := &Runtime{
		model:            model,
		computeScale:     scale,
		maxRanks:         maxRanks,
		maxExchangeBytes: cfg.MaxExchangeBytes,
		trace:            cfg.Trace,
		f:                f,
		rdv:              map[int64]*rendezvous{},
	}
	// All world communicators share one read-only members slice: Comm
	// never mutates members (Split/Dup build fresh slices), and a per-rank
	// copy would cost O(P²) memory at paper-scale rank counts.
	w := &epochWorld{
		epoch:   0,
		members: identity(n),
		ctx:     worldCtx(0),
		insts:   make([]*rankInstance, n),
	}
	for i := range w.insts {
		w.insts[i] = rt.newInstance(w, i, i, 0)
	}
	rt.world = w
	debugWorldStart()
	defer debugWorldEnd(rt)
	exec := rt.execute(cfg.Workers, n)
	final := rt.currentWorld()
	total := len(final.insts)
	st := &Stats{
		Clocks:       make([]float64, total),
		Admit:        make([]float64, total),
		Retire:       make([]float64, total),
		JoinEpoch:    make([]int, total),
		Phases:       make([]map[string]float64, total),
		BytesSent:    make([]int64, total),
		MessagesSent: make([]int64, total),
		Values:       make([]any, total),
		Epochs:       final.epoch + 1,
		FinalSize:    len(final.members),
		Exec:         exec,
	}
	bufs := make([]*obs.Buffer, total)
	for i, inst := range final.insts {
		s := &inst.st
		st.Clocks[i] = s.clock
		st.Admit[i] = s.admit
		st.Retire[i] = s.retire
		st.JoinEpoch[i] = s.joinEpoch
		st.Phases[i] = s.phases
		st.BytesSent[i] = s.bytesSent
		st.MessagesSent[i] = s.msgsSent
		st.Values[i] = s.result
		bufs[i] = &s.rec
	}
	st.Events = obs.NewLog(bufs)
	return st
}

// execute runs the n founding ranks — and every rank a Resize admits — to
// completion under the executor and returns its final meters. Task ids are
// instance ids: admitted ranks join the executor as new tasks (Admit)
// without disturbing the all-parked deadlock verdict, and retired ranks
// simply finish. A rank panic (including the deadlock verdict) aborts
// the executor, which makes every other rank unwind from its next park;
// once all are gone, the first panic is re-raised in the caller's
// goroutine.
func (rt *Runtime) execute(workers, n int) *rankexec.Stats {
	panicCh := make(chan any, 1)
	body := func(r int) {
		defer func() {
			if p := recover(); p != nil {
				// Keep the first panic, then abort: the ranks it releases
				// panic too, and theirs must not take its place.
				select {
				case panicCh <- p:
				default:
				}
				rt.exec.Abort()
			}
		}()
		rt.f(rt.instComm(r))
	}
	opts := rankexec.Options{
		OnDeadlock: func([]int) { panic(rt.deadlockDump()) },
	}
	if workers > 0 {
		// Fixed slot count, no budget: deterministic host concurrency for
		// tests and benchmarks.
		opts.Workers = workers
	} else {
		// One guaranteed slot (progress must never depend on the budget)
		// plus extras up to the host's capacity.
		b := hostpar.SharedBudget()
		opts.Workers = 1
		opts.Budget = b
		opts.MaxWorkers = b.Capacity()
	}
	ex := rankexec.New(n, body, opts)
	rt.exec = ex
	ex.Start()
	ex.Wait()
	select {
	case p := <-panicCh:
		panic(p)
	default:
	}
	st := ex.Snapshot()
	return &st
}

// deadlockDump renders the all-parked verdict: every mailbox's wait record,
// read under the mailbox lock, then every rendezvous generation still short
// of ranks. The executor calls it (through OnDeadlock) only once every live
// rank is parked: each recorded its key in take, or its arrival in a
// rendezvous, and nothing came to wake it.
func (rt *Runtime) deadlockDump() string {
	msg := "vmpi: deadlock: all ranks blocked in receive or collective:\n"
	for r, inst := range rt.currentWorld().insts {
		mb := &inst.box
		mb.mu.Lock()
		if mb.waiting {
			msg += fmt.Sprintf("  rank %d waiting for (src %d, tag %d)\n", r, mb.waitKey.src, mb.waitKey.tag)
		}
		mb.mu.Unlock()
	}
	var waits []string
	rt.mu.Lock()
	for _, g := range rt.rdv {
		g.mu.Lock()
		if g.arrived > 0 {
			var missing []int
			for r := range g.slots {
				if g.slots[r].gen.Load() != g.gen {
					missing = append(missing, g.members[r])
				}
			}
			waits = append(waits, fmt.Sprintf("  %d of %d ranks parked in %v; missing ranks %v\n",
				g.arrived, len(g.slots), g.op, missing))
		}
		g.mu.Unlock()
	}
	rt.mu.Unlock()
	sort.Strings(waits)
	return msg + strings.Join(waits, "")
}
