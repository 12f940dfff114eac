package vmpi

// The rendezvous every collective (collectives.go) and Resize's release
// meet in. A call is one generation:
// each rank stages its input and entry clock in its slot and parks once;
// the last to arrive replays the algorithm's messages for every rank in
// closed form — their schedule is fixed, and each is charged by sendClocks
// and recvClock as sendMsg and recvRaw charge it — moves the data and wakes
// the rest in one UnparkBatch.
// The message-level bodies in collectives_ref_test.go are the reference.
// Single writer: the replay writes slot results and scratch, never a
// rankState; each rank applies its own result when it wakes. Replay opens
// the same meeting to a caller's algorithm whose schedule is a function of
// the staged states.

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
)

// collOp is what a rank entered; every rank of a generation must enter the
// same. A collective's variants (Val, Blocks, Owned) meet as one.
type collOp struct {
	name  string
	typ   reflect.Type // element type, or a Replay's state type
	n     int          // Allreduce and Exscan length, AlltoallLinear tag
	state bool         // a Replay
}

func (o collOp) String() string {
	s := o.name
	if o.state {
		s += " with state " + o.typ.Elem().String()
	} else if o.typ != nil {
		s += " of []" + o.typ.Elem().String()
	}
	if o.name == "Allreduce" || o.name == "Exscan" {
		s += fmt.Sprintf(", length %d", o.n)
	} else if o.name == "AlltoallLinear" {
		s += fmt.Sprintf(", tag %d", o.n)
	}
	return s
}

// rdvSlot is one rank's place. The rank writes its entry under the lock and
// reads its result once woken; the replay reads the one, writes the other.
type rdvSlot struct {
	gen   atomic.Uint64  // the generation entered last, rdvDone set once its result is in
	clock float64        // the entry clock, then the replay's, then the exit
	data  unsafe.Pointer // the staged input (Alltoall: the [][]T; Replay: the state), then the result
	n     int            // its length
	inl   uint64         // a one-word input's storage
	msgs  int64
	bytes int64
	tr    *rdvTrace // set under Config.Trace
}

// rdvMsg is one message of a round: its ends, its size and its arrival.
type rdvMsg struct {
	src, dst, bytes int
	arrive          float64
}

// rdvDone marks a slot's generation as replayed.
const rdvDone = 1 << 63

// rdvTrace is what a traced rank's slot records for it.
type rdvTrace struct {
	phase       string
	start, mark float64 // where the current outer and inner span began
	events      []obs.Event
}

// rendezvous is one communicator's meeting point, held in Runtime.rdv.
// Ranks read offs after they wake; only the next replay rewrites it, and it
// needs every rank to have entered again. The replay's scratch is O(P): a
// round's messages (at most one per rank), AlltoallLinear's entry clocks and
// the Allgather offsets.
type rendezvous struct {
	rt             *Runtime
	members, nodes []int // instance id and network position of each rank
	slots          []rdvSlot
	msgs           []rdvMsg
	entry          []float64
	offs           []int
	dbg            dbgGroup // the Group replaying, under vmpidebug

	mu      sync.Mutex
	gen     uint64 // the generation being assembled, from 1
	arrived int
	op      collOp // what its first arrival entered,
	first   int    // that rank,
	fn      any    // and its Allreduce operator or Replay fn (MPI: every rank passes the same)
}

// meeting returns the communicator's rendezvous, cached in the rank's Comm.
func (c *Comm) meeting() *rendezvous {
	if c.rdv == nil {
		p := len(c.members)
		c.rt.mu.Lock()
		if c.rdv = c.rt.rdv[c.ctx]; c.rdv == nil {
			c.rdv = &rendezvous{rt: c.rt, members: c.members, nodes: make([]int, p),
				slots: make([]rdvSlot, p), gen: 1}
			for r := range c.rdv.nodes {
				c.rdv.nodes[r] = c.inst(r).node
			}
			c.rt.rdv[c.ctx] = c.rdv
		}
		c.rt.mu.Unlock()
	}
	return c.rdv
}

// collective runs one synchronizing collective on the calling rank, its
// input staged: it enters the generation and parks until the replay has
// run or, arriving last, runs replay and wakes the rest. It returns with
// the rank's result applied; a data result stays in the slot.
func (c *Comm) collective(op collOp, fn any, replay func(*rendezvous)) (*rendezvous, *rdvSlot) {
	g := c.meeting()
	s := &g.slots[c.rank]
	g.mu.Lock()
	if g.arrived == 0 {
		g.op, g.first, g.fn = op, c.rank, fn
	} else if op != g.op {
		g.mu.Unlock()
		panic(fmt.Sprintf("vmpi: collective mismatch on a %d-rank communicator: rank %d entered %v, rank %d entered %v",
			len(g.slots), g.first, g.op, c.rank, op))
	}
	gen := g.gen
	s.gen.Store(gen)
	if s.clock, s.tr = c.st.clock, nil; c.rt.trace {
		s.tr = &rdvTrace{phase: c.st.currentPhase, start: c.st.clock}
	}
	g.arrived++
	last := g.arrived == len(g.slots)
	if last {
		g.arrived, g.gen = 0, gen+1
	}
	g.mu.Unlock()
	if last {
		for i := range g.slots {
			g.slots[i].msgs, g.slots[i].bytes = 0, 0
		}
		replay(g)
		g.fn = nil
		for r := range g.slots {
			g.slots[r].gen.Store(gen | rdvDone)
		}
		c.rt.exec.UnparkBatch(g.members[:c.rank])
		c.rt.exec.UnparkBatch(g.members[c.rank+1:])
	} else {
		// The replay wakes every other rank once, so the first Park ends
		// there.
		for c.rt.exec.Park(c.world(c.rank)); s.gen.Load() != gen|rdvDone; {
			c.rt.exec.Park(c.world(c.rank))
		}
	}
	c.st.clock = s.clock
	c.st.msgsSent += s.msgs
	c.st.bytesSent += s.bytes
	if s.tr != nil {
		for _, e := range s.tr.events {
			c.st.rec.Record(e)
		}
	}
	s.tr = nil
	return g, s
}

// Replay runs a synchronizing step as one rendezvous: every rank stages
// state and parks once, and the last to arrive calls fn once with every
// rank's state in rank order. fn replays the step's messages, collectives
// and computation through h, each rank's in its program order, and updates
// the states; every rank returns after it, its clock, counters and (under
// Config.Trace) events as if it had sent and received them. A step whose
// charges split into tasks of disjoint ranks — a round of pairwise
// exchanges — fn hands to h.Group, which may run them on an idle core and
// still returns every rank's charges bit for bit. The schedule fn
// replays may depend on the staged states — a data-dependent round count
// is fine — but never on host order: which rank arrived last. fn must touch
// nothing but the states and h — no Comm, nothing else of vmpi — and every
// rank must pass the same op and fn. fn may move what the states refer to
// from one state to another, so that each rank works on it in parallel once
// it returns, not on the replaying goroutine. A state may carry the states
// slice itself past the replay — read other ranks' states after it — only
// behind a second meeting: a rank that has returned may change or drop what
// its state refers to.
func Replay[S any](c *Comm, op string, state *S, fn func(h *Replayer, states []*S)) {
	s := &c.meeting().slots[c.rank]
	s.data = unsafe.Pointer(state)
	c.collective(collOp{name: op, typ: reflect.TypeOf(state), state: true}, fn, replayStates[S])
	s.data = nil
}

func replayStates[S any](g *rendezvous) {
	states := make([]*S, len(g.slots))
	for r := range g.slots {
		states[r] = (*S)(g.slots[r].data)
	}
	h := &Replayer{g: g}
	g.fn.(func(*Replayer, []*S))(h, states)
}

// Replayer is what a Replay's fn charges ranks through, by communicator
// rank: the arithmetic of Send, Recv and Comm.Compute, applied to the
// rendezvous slots. Group runs tasks that charge disjoint ranks as a
// hostpar.For, which returns only once every task has run, before any rank
// wakes (group.go); inside a task only Send, Recv and Compute may be
// called.
type Replayer struct {
	g       *rendezvous
	grouped bool // inside Group
}

// Send charges a message of bytes on tag from src to dst to its sender and
// returns its arrival, for the matching Recv.
func (h *Replayer) Send(src, dst, bytes, tag int) (arrive float64) {
	return h.g.send(src, dst, bytes, tag)
}

// Recv completes at dst the message Send charged.
func (h *Replayer) Recv(src, dst, bytes int, arrive float64) { h.g.recv(src, dst, bytes, arrive) }

// Allgather charges every rank an Allgather in which rank r contributes
// bytes(r) bytes, exactly as the collective charges it: its messages and,
// under Config.Trace, its spans, which start where it starts.
func (h *Replayer) Allgather(bytes func(r int) int) {
	h.enter("Allgather")
	h.g.allgather(bytes)
}

// Alltoall charges every rank a pairwise all-to-all in which rank src sends
// bytes(src, dst) to rank dst, exactly as the collective charges it: its
// messages and, under Config.Trace, its span, which starts where it starts.
func (h *Replayer) Alltoall(bytes func(src, dst int) int) {
	h.enter("Alltoall")
	h.g.alltoall(bytes)
}

// Compute advances rank's clock as Comm.Compute does.
func (h *Replayer) Compute(rank int, seconds float64) {
	if seconds < 0 {
		panic("vmpi: negative compute time")
	}
	debugCharge(h.g, rank)
	h.g.slots[rank].clock += seconds * h.g.rt.computeScale
}

// round replays one step of an algorithm, whose n ≤ P messages edge(i) =
// (src, dst, bytes) leave after their sender's previous step and arrive for
// their receiver's next: every send, then every receive, in message order —
// each rank's program order, as a rank sends before it receives within a
// step. edge is called once per message; g.msgs keeps what the receives
// need.
func (g *rendezvous) round(n, tag int, edge func(i int) (src, dst, bytes int)) {
	if cap(g.msgs) < n {
		g.msgs = make([]rdvMsg, n)
	}
	msgs := g.msgs[:n]
	for i := range msgs {
		m := &msgs[i]
		m.src, m.dst, m.bytes = edge(i)
		m.arrive = g.send(m.src, m.dst, m.bytes, tag)
	}
	for i := range msgs {
		m := &msgs[i]
		g.recv(m.src, m.dst, m.bytes, m.arrive)
	}
}

// send charges one message to its sender and returns its arrival; recv
// completes it at its receiver. Both record under Config.Trace, as sendMsg
// and recvRaw do.
func (g *rendezvous) send(src, dst, bytes, tag int) float64 {
	debugCharge(g, src)
	s := &g.slots[src]
	start, after, arrive := sendClocks(g.rt.model, s.clock, g.nodes[src], g.nodes[dst], bytes)
	s.clock = after
	s.msgs++
	s.bytes += int64(bytes)
	if g.rt.trace {
		s.tr.events = append(s.tr.events, obs.Event{Kind: obs.KindSend, Name: s.tr.phase,
			Peer: g.members[dst], Tag: tag, Bytes: bytes, T: start, T2: arrive})
	}
	return arrive
}

// post charges a message to its sender as send does — sendClocks' start
// plus the injection time, bit for bit — without working out its arrival:
// for a schedule that works out arrivals in a later pass.
func (g *rendezvous) post(src, bytes int) {
	s := &g.slots[src]
	s.clock = s.clock + sendOverhead + g.rt.model.Injection(bytes)
	s.msgs++
	s.bytes += int64(bytes)
}

func (g *rendezvous) recv(src, dst, bytes int, arrive float64) {
	debugCharge(g, dst)
	s := &g.slots[dst]
	s.clock = recvClock(s.clock, arrive)
	if g.rt.trace {
		s.tr.events = append(s.tr.events, obs.Event{Kind: obs.KindArrive, Name: s.tr.phase,
			Peer: g.members[src], Bytes: bytes, T: arrive, T2: s.clock})
	}
}

// tree replays a binomial tree rooted at rank 0 as an inner span: a
// Reduce's fan-in (up: from the leaves, each child sending its subtree's
// accumulator to its parent, which folds it in) or a broadcast's fan-out
// (from the root, each holder forwarding to the children it has yet to
// reach, farthest first).
func (g *rendezvous) tree(up bool, tag, bytes int, fold func(parent, child int)) {
	top := 1
	for top < len(g.slots) {
		top <<= 1
	}
	g.begin(true)
	for i := 1; i < top; i <<= 1 {
		m := i
		if !up {
			m = top / (2 * i)
		}
		k := (len(g.slots) + m - 1) / (2 * m)
		g.round(k, tag, func(j int) (int, int, int) {
			if !up {
				return 2 * m * j, 2*m*j + m, bytes
			}
			return 2*m*j + m, 2 * m * j, bytes
		})
		for j := 0; up && j < k; j++ {
			fold(2*m*j, 2*m*j+m)
		}
	}
}

// begin marks on every traced rank its replay clock as where its next
// outer or inner span starts.
func (g *rendezvous) begin(inner bool) {
	for i := range g.slots {
		if s := &g.slots[i]; s.tr != nil {
			if inner {
				s.tr.mark = s.clock
			} else {
				s.tr.start = s.clock
			}
		}
	}
}

// span records on every traced rank a span ending at its replay clock,
// from where its outer or inner span began.
func (g *rendezvous) span(kind obs.Kind, name string, inner bool) {
	for i := range g.slots {
		if s := &g.slots[i]; s.tr != nil {
			t0 := s.tr.start
			if inner {
				t0 = s.tr.mark
			}
			s.tr.events = append(s.tr.events, obs.Event{Kind: kind, Name: name, T: t0, T2: s.clock})
		}
	}
}

// flatTypes caches the is-flat verdict per element type (typeID).
var flatTypes sync.Map

// inlineable reports whether a []T may be held as raw bytes in a slot's
// inline word: the element type must be flat (no pointers, slices, maps,
// strings, channels, interfaces — anything whose referents the raw bytes
// would hide from the garbage collector).
func inlineable[T any]() bool {
	t := typeID[T]()
	if v, ok := flatTypes.Load(t); ok {
		return v.(bool)
	}
	ok := flatType(t.Elem())
	flatTypes.Store(t, ok)
	return ok
}

// flatType reports whether a type contains no pointer-bearing fields.
func flatType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return flatType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !flatType(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// stage copies the calling rank's input into its slot as a send would:
// inline when it is one flat word, else into a (pooled) buffer that unstage
// returns. The caller's slice is not kept, so a small literal stays on its
// stack.
func stage[T any](c *Comm, data []T) {
	s := &c.meeting().slots[c.rank]
	if s.n = len(data); s.n*sizeOf[T]() <= 8 && inlineable[T]() {
		debugUse(data)
		s.data = unsafe.Pointer(&s.inl)
		copy(slotData[T](s), data)
		return
	}
	s.data = unsafe.Pointer(unsafe.SliceData(copySlice(data)))
}

// unstage returns the pooled copies of a replayed generation's inputs: those
// of a pool size class (getSlice).
func unstage[T any](g *rendezvous) {
	for i := range g.slots {
		if s := &g.slots[i]; s.data != unsafe.Pointer(&s.inl) {
			if b := classBits(s.n); b >= 0 {
				Release(unsafe.Slice((*T)(s.data), classCap(b))[:s.n])
			}
		}
	}
}

// slotData is the slice a slot holds.
func slotData[T any](s *rdvSlot) []T { return unsafe.Slice((*T)(s.data), s.n) }

// share hands every rank the one result of an Allreduce or an Allgather,
// registered as a shared buffer with a holder per rank.
func share[T any](g *rendezvous, res []T) {
	debugShare(g.rt, res)
	for r := range g.slots {
		if r > 0 {
			debugForward(res)
		}
		g.slots[r].data, g.slots[r].n = unsafe.Pointer(unsafe.SliceData(res)), len(res)
	}
}

// takeShared is the rank's view of the shared result (its capacity
// sharedCap); its slot lets go.
func takeShared[T any](g *rendezvous, s *rdvSlot) []T {
	res := unsafe.Slice((*T)(s.data), sharedCap(s.n))[:s.n]
	s.data = nil
	return res
}
