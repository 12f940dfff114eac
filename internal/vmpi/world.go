package vmpi

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// rankState is the per-rank mutable state shared by all communicators that
// the rank participates in. It must only be touched by the rank's goroutine
// (what the rank is parked for — the one thing another goroutine reads — is
// the mailbox's wait record, under the mailbox lock).
type rankState struct {
	clock        float64
	phases       map[string]float64
	currentPhase string
	bytesSent    int64
	msgsSent     int64
	splitSeq     int64
	result       any
	// admit is the virtual time the rank was admitted (0 for founding
	// ranks, the resize time t* for ranks admitted by a grow).
	admit float64
	// retire is the virtual time the rank was retired by a shrink, or -1
	// while the rank is in the world.
	retire float64
	// joinEpoch is the world epoch the rank was admitted in (0 for
	// founding ranks).
	joinEpoch int
	// rec is the rank's observability buffer: counters and gauges always
	// fold into its running aggregates; the phase, collective, message and
	// counter events are built and listed only under Config.Trace.
	rec obs.Buffer
}

// rankInstance is one rank identity over the whole life of the virtual
// machine. Instance ids are dense, stable, and never reused: founding ranks
// get ids 0..n-1, every rank admitted by a grow gets the next id. The
// executor task id, the mailbox, the observability stream, and the final
// Stats arrays are all indexed by instance id. Mailbox, state and admission
// communicator live inside the instance: an idle rank is one allocation.
type rankInstance struct {
	box mailbox
	st  rankState
	// node is the instance's position in the network topology — its world
	// rank in the epoch it was admitted. Survivors of a resize keep their
	// world rank (the surviving prefix), so a node assignment is valid for
	// the instance's whole life, and shrink-then-grow reuses the freed
	// node positions for the admitted instances. The network model charges
	// Cost(node, node, ...), so resized worlds keep physical locality.
	node int
	// comm is the world communicator the instance was admitted with; the
	// executor hands it to the rank body on first dispatch.
	comm Comm
}

// epochWorld is one epoch's world membership. Worlds are immutable once
// published: a resize builds a fresh epochWorld (sharing the rank
// instances of survivors) and installs it as the runtime's current world,
// so ranks still draining the previous epoch read a stable snapshot.
type epochWorld struct {
	// epoch numbers the world generations, starting at 0.
	epoch int
	// members maps world rank -> instance id.
	members []int
	// ctx is the world communicator's message context, distinct per epoch.
	ctx int64
	// insts indexes every instance admitted up to and including this
	// epoch by instance id (a superset of members: retired instances
	// remain, so stats and obs streams cover them).
	insts []*rankInstance
}

// worldCtx returns the world communicator context for an epoch. Epoch 0 is
// context 0 (the founding world); later epochs get widely spaced bases so
// Split/Dup-derived contexts of different epochs never collide.
func worldCtx(epoch int) int64 {
	return int64(epoch) * 1_000_000_007
}

// currentWorld returns the runtime's live world snapshot.
func (rt *Runtime) currentWorld() *epochWorld {
	rt.mu.Lock()
	w := rt.world
	rt.mu.Unlock()
	return w
}

// instComm returns the admission communicator of an instance; the executor
// body calls it when first dispatching the instance's task.
func (rt *Runtime) instComm(id int) *Comm {
	return &rt.currentWorld().insts[id].comm
}

// newInstance builds the rank instance admitted to world w at world rank
// (and network position) rank: a fresh mailbox, state, observability
// buffer and admission communicator. id is the instance id, admit the
// admission time.
func (rt *Runtime) newInstance(w *epochWorld, id, rank int, admit float64) *rankInstance {
	inst := &rankInstance{
		node: rank,
		st: rankState{
			clock:     admit,
			admit:     admit,
			retire:    -1,
			joinEpoch: w.epoch,
		},
	}
	inst.st.rec.Init(id, rt.trace)
	inst.comm = Comm{
		rt:      rt,
		w:       w,
		rank:    rank,
		members: w.members,
		ctx:     w.ctx,
		st:      &inst.st,
	}
	return inst
}

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// Comm is a communicator: a group of ranks that exchange messages. Each rank
// holds its own Comm value; a Comm must only be used by the goroutine of its
// rank. All communicators of one rank share the rank's virtual clock and
// phase timers.
type Comm struct {
	rt      *Runtime
	w       *epochWorld // the world epoch this communicator derives from
	rank    int         // rank within this communicator
	members []int       // instance id of each communicator rank
	ctx     int64       // context id separating message streams of communicators
	st      *rankState
	rdv     *rendezvous // the communicator's meeting point, once looked up
}

// Rank returns the calling rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank returns the calling rank's global rank id — stable across the
// whole run and across resizes. Without resizes it equals the rank's index
// in the world communicator.
func (c *Comm) WorldRank() int { return c.members[c.rank] }

// Epoch returns the world epoch this communicator derives from (0 for the
// founding world; each Resize starts a new epoch).
func (c *Comm) Epoch() int { return c.w.epoch }

// JoinEpoch returns the epoch the calling rank was admitted in: 0 for
// founding ranks, the epoch created by the admitting Resize otherwise. A
// rank body can use it to tell a fresh start from a resize admission.
func (c *Comm) JoinEpoch() int { return c.st.joinEpoch }

// AdmitTime returns the virtual time the calling rank was admitted (0 for
// founding ranks).
func (c *Comm) AdmitTime() float64 { return c.st.admit }

// Time returns the rank's current virtual clock in seconds.
func (c *Comm) Time() float64 { return c.st.clock }

// Compute advances the rank's virtual clock by the given computation time in
// seconds, scaled by the machine's compute scale.
func (c *Comm) Compute(seconds float64) {
	if seconds < 0 {
		panic("vmpi: negative compute time")
	}
	c.st.clock += seconds * c.rt.computeScale
}

// MaxExchangeBytes returns the machine's redistribution staging budget in
// bytes (Config.MaxExchangeBytes; 0 = unbounded). It is one value for the
// whole run, so every rank — admitted by Resize or not — reads the same
// budget and budgeted plans stay collective-symmetric. Planners in
// internal/redist consult it to decide whether an exchange must be
// decomposed into bounded-footprint rounds.
func (c *Comm) MaxExchangeBytes() int64 { return c.rt.maxExchangeBytes }

// SetResult stores a per-rank result value that Run surfaces in
// Stats.Values. Typically used by tests and the benchmark harness.
func (c *Comm) SetResult(v any) { c.st.result = v }

// AddPhase accumulates dt seconds into the named phase timer (Stats.Phases)
// and, under Config.Trace, records a synthesized phase-end span
// [now-dt, now].
func (c *Comm) AddPhase(name string, dt float64) {
	if dt < 0 {
		// Clock deltas are always non-negative; guard against misuse.
		panic(fmt.Sprintf("vmpi: negative phase time for %q", name))
	}
	if c.st.phases == nil {
		c.st.phases = map[string]float64{}
	}
	c.st.phases[name] += dt
	if c.rt.trace {
		c.st.rec.Record(obs.Event{Kind: obs.KindPhaseEnd, Name: name, T: c.st.clock - dt, T2: c.st.clock})
	}
}

// Phase runs f and accumulates the elapsed virtual time into the named
// phase timer, bracketing it with phase-begin/phase-end events under
// Config.Trace. While f runs, messages sent by this rank
// are attributed to the phase in traces; nested phases attribute to the
// innermost name.
func (c *Comm) Phase(name string, f func()) {
	prev := c.st.currentPhase
	c.st.currentPhase = name
	t0 := c.st.clock
	if c.rt.trace {
		c.st.rec.Record(obs.Event{Kind: obs.KindPhaseBegin, Name: name, T: t0})
	}
	f()
	c.AddPhase(name, c.st.clock-t0)
	c.st.currentPhase = prev
}

// PhaseTime returns the accumulated virtual time of the named phase on this
// rank.
func (c *Comm) PhaseTime(name string) float64 { return c.st.phases[name] }

// Counter emits a named counter increment at the current virtual time.
// Counters do not advance the clock; the cross-rank total is
// Stats.Events.Counter, on any run.
func (c *Comm) Counter(name string, v float64) {
	c.st.rec.Record(obs.Event{Kind: obs.KindCounter, Name: name, Value: v, T: c.st.clock})
}

// Gauge emits a named point sample at the current virtual time; the
// cross-rank maximum is Stats.Events.GaugeMax, on any run.
func (c *Comm) Gauge(name string, v float64) {
	c.st.rec.Record(obs.Event{Kind: obs.KindGauge, Name: name, Value: v, T: c.st.clock})
}

// Split partitions the communicator: ranks supplying the same color form a
// new communicator; ranks are ordered by (key, parent rank). Every rank of
// the parent must call Split. A negative color returns nil for that rank
// (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, rank int }
	mine := entry{color, key, c.rank}
	all := Allgather(c, []entry{mine})
	c.st.splitSeq++
	if color < 0 {
		return nil
	}
	var group []entry
	for _, e := range all {
		if e.color == color {
			group = append(group, e)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	members := make([]int, len(group))
	newRank := -1
	for i, e := range group {
		members[i] = c.members[e.rank]
		if e.rank == c.rank {
			newRank = i
		}
	}
	return &Comm{
		rt:      c.rt,
		w:       c.w,
		rank:    newRank,
		members: members,
		ctx:     c.ctx*1_000_003 + int64(color)*1009 + c.st.splitSeq,
		st:      c.st,
	}
}

// Dup returns a communicator with the same group but a separate message
// context. Every rank must call Dup.
func (c *Comm) Dup() *Comm {
	Barrier(c)
	c.st.splitSeq++
	return &Comm{
		rt:      c.rt,
		w:       c.w,
		rank:    c.rank,
		members: append([]int(nil), c.members...),
		ctx:     c.ctx*1_000_003 + 500_009 + c.st.splitSeq,
		st:      c.st,
	}
}

// world returns the global rank (instance) id for a communicator rank.
func (c *Comm) world(rank int) int {
	return c.members[rank]
}

// inst returns the rank instance behind a communicator rank.
func (c *Comm) inst(rank int) *rankInstance {
	return c.w.insts[c.members[rank]]
}
