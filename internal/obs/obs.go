// Package obs is the unified observability layer. The virtual MPI runtime,
// the coupling pipeline and the solvers emit events into one Buffer per
// rank. Every buffer folds counters and gauges into a small table of
// running aggregates; the append-only event list — what the exporters
// (Chrome trace-event JSON, Prometheus text metrics, comm-matrix
// summaries) and the per-event Log views read — is kept only when the run
// asked for it (vmpi.Config.Trace).
//
// Determinism contract: obs is part of the determinism-analyzer hot set.
// Events carry only virtual data — timestamps stamped by the emitter, the
// rank stamped by the Buffer — and this package never reads the host
// clock. Buffers are per-rank — each is touched only by its rank's
// goroutine, so no locks are needed and event order per rank is
// deterministic.
package obs

// Kind discriminates event records in the stream.
type Kind uint8

const (
	// KindPhaseBegin marks entry into a named phase at virtual time T.
	KindPhaseBegin Kind = iota
	// KindPhaseEnd marks a completed phase span [T, T2]. Synthesized
	// phase accounting (vmpi.Comm.AddPhase) emits only this kind.
	KindPhaseEnd
	// KindSend records a point-to-point message leaving Rank for Peer
	// (world rank) with Tag and Bytes; T is the send start, T2 the
	// modeled arrival time. Name carries the sender's current phase.
	KindSend
	// KindArrive records a message being received on Rank from Peer; T is
	// the modeled arrival time, T2 the receiver's clock after the receive
	// overhead. Name carries the receiver's current phase.
	KindArrive
	// KindCollective records a collective operation span [T, T2] on Rank;
	// Name is the operation ("barrier", "bcast", "alltoall", ...).
	KindCollective
	// KindBarrier records the span [T, T2] a rank spent inside Barrier —
	// T2-T is the rank's barrier wait.
	KindBarrier
	// KindCounter is a monotonic named count increment of Value at T.
	KindCounter
	// KindGauge is a named point sample of Value at T.
	KindGauge
)

// String returns the kind's stable lowercase name (used by exporters).
func (k Kind) String() string {
	switch k {
	case KindPhaseBegin:
		return "phase-begin"
	case KindPhaseEnd:
		return "phase-end"
	case KindSend:
		return "send"
	case KindArrive:
		return "arrive"
	case KindCollective:
		return "collective"
	case KindBarrier:
		return "barrier"
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "unknown"
}

// Event is one record in the stream. Field use by kind:
//
//	PhaseBegin:  Name, T
//	PhaseEnd:    Name, T (begin), T2 (end)
//	Send:        Name (phase), Peer (dst world rank), Tag, Bytes, T (send), T2 (arrive)
//	Arrive:      Name (phase), Peer (src world rank), Bytes, T (arrive), T2 (post-overhead)
//	Collective:  Name (operation), T, T2
//	Barrier:     T, T2
//	Counter:     Name, Value, T
//	Gauge:       Name, Value, T
//
// Rank is the emitting world rank, stamped by the Buffer.
type Event struct {
	Kind  Kind
	Rank  int
	Name  string
	Peer  int
	Tag   int
	Bytes int
	T     float64 // virtual seconds
	T2    float64 // virtual seconds (span end / arrival)
	Value float64
}

// Dur returns the event's span length in virtual seconds (0 for point
// events).
func (e Event) Dur() float64 {
	if e.T2 > e.T {
		return e.T2 - e.T
	}
	return 0
}

// aggregate is one running total: a counter's sum or a gauge's maximum.
// The first sample initialises v, so an all-negative gauge and a lone -0
// read back exactly as a scan of the event list reads them.
type aggregate struct {
	name  string
	gauge bool
	v     float64
}

// fold adds a counter increment or a gauge sample to the table: a linearly
// scanned slice, since a rank emits a handful of names. A name used as both
// counter and gauge gets an entry per kind.
func fold(aggs []aggregate, name string, gauge bool, v float64) []aggregate {
	for i := range aggs {
		a := &aggs[i]
		if a.gauge != gauge || a.name != name {
			continue
		}
		if !gauge {
			a.v += v
		} else if v > a.v {
			a.v = v
		}
		return aggs
	}
	return append(aggs, aggregate{name: name, gauge: gauge, v: v})
}

// Buffer is the per-rank event sink, written only by its rank's goroutine.
// It always folds counters and gauges into its aggregate table and appends
// to the event list only when initialised to keep one.
type Buffer struct {
	rank   int
	keep   bool
	events []Event
	aggs   []aggregate
}

// Init readies a Buffer in place. keep selects whether the event list is
// kept.
func (b *Buffer) Init(rank int, keep bool) {
	*b = Buffer{rank: rank, keep: keep}
}

// Record folds counters and gauges into the aggregates and, when the
// buffer keeps a list, stamps the rank and appends the event to it.
func (b *Buffer) Record(e Event) {
	if e.Kind == KindCounter || e.Kind == KindGauge {
		b.aggs = fold(b.aggs, e.Name, e.Kind == KindGauge, e.Value)
	}
	if !b.keep {
		return
	}
	e.Rank = b.rank
	b.events = append(b.events, e)
}

// Events returns the kept list (nil when none is kept). The slice is owned
// by the buffer; callers must not modify it.
func (b *Buffer) Events() []Event { return b.events }
