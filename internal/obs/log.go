package obs

import "sort"

// Log is the merged per-rank record of a finished run: one append-ordered
// event slice per world rank, all nil when the run kept no list. The
// counter and gauge views (Counter, Counters, GaugeMax, GaugeHighWater)
// work on every log; every other view and the exporters read the events
// and need a kept list (HasEvents).
type Log struct {
	ByRank [][]Event
	// aggs is the buffers' aggregate tables folded in rank order; folded
	// marks it authoritative (a log assembled by NewLog) and kept that
	// those buffers kept their lists. A Log built as a list literal has
	// neither and answers by scanning ByRank.
	aggs         []aggregate
	folded, kept bool
}

// NewLog assembles a log from the per-rank buffers.
func NewLog(bufs []*Buffer) *Log {
	l := &Log{ByRank: make([][]Event, len(bufs)), folded: true}
	for i, b := range bufs {
		if b == nil {
			continue
		}
		l.ByRank[i] = b.events
		l.kept = l.kept || b.keep
		for _, a := range b.aggs {
			l.aggs = fold(l.aggs, a.name, a.gauge, a.v)
		}
	}
	return l
}

// samples returns the per-rank lists the counter and gauge views scan:
// none when the folded aggregates already hold the answer.
func (l *Log) samples() [][]Event {
	if l.folded {
		return nil
	}
	return l.ByRank
}

// Ranks returns the number of ranks in the log.
func (l *Log) Ranks() int { return len(l.ByRank) }

// HasEvents reports whether the log holds an event list — false for the
// aggregate-only log of a run that was not asked to keep one, on which the
// per-event views are empty and the exporters refuse to run.
func (l *Log) HasEvents() bool { return !l.folded || l.kept }

// Select returns a log of the events for which keep returns true, rank by
// rank in order.
func (l *Log) Select(keep func(Event) bool) *Log {
	out := &Log{ByRank: make([][]Event, len(l.ByRank))}
	for r, evs := range l.ByRank {
		for _, e := range evs {
			if keep(e) {
				out.ByRank[r] = append(out.ByRank[r], e)
			}
		}
	}
	return out
}

// Filter returns the events (across all ranks, in rank order) for which
// keep returns true.
func (l *Log) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, evs := range l.ByRank {
		for _, e := range evs {
			if keep(e) {
				out = append(out, e)
			}
		}
	}
	return out
}

// Sends returns the KindSend events of the given phase across all ranks;
// an empty phase selects every phase.
func (l *Log) Sends(phase string) []Event {
	return l.Filter(func(e Event) bool {
		return e.Kind == KindSend && (phase == "" || e.Name == phase)
	})
}

// CommMatrix returns the dense bytes matrix m[src][dst] accumulated from
// the send events of the given phase ("" for all phases).
func (l *Log) CommMatrix(phase string) [][]int64 {
	p := l.Ranks()
	m := make([][]int64, p)
	for i := range m {
		m[i] = make([]int64, p)
	}
	for _, c := range l.commPairs() {
		if c.phase == phase {
			m[c.src][c.dst] = c.bytes
		}
	}
	return m
}

// ActivePairs returns the number of ordered (src, dst) pairs with src != dst
// that exchanged at least one byte during the given phase ("" for all).
func (l *Log) ActivePairs(phase string) int { return activePairs(l.commPairs(), phase) }

func activePairs(pairs []commPair, phase string) int {
	n := 0
	for _, c := range pairs {
		if c.phase == phase && c.src != c.dst && c.bytes > 0 {
			n++
		}
	}
	return n
}

// commPair is one (src, dst) entry of a phase's comm matrix.
type commPair struct {
	phase    string
	src, dst int
	bytes    int64
}

// commPairs accumulates the send events into the entries of every phase's
// comm matrix, sorted by (phase, src, dst), in one pass and in memory
// proportional to the sends (a dense matrix is P² per phase). Every send
// also counts under "", the all-phases matrix.
func (l *Log) commPairs() []commPair {
	p := l.Ranks()
	var out []commPair
	for _, evs := range l.ByRank {
		for _, e := range evs {
			if e.Kind != KindSend || e.Rank >= p || e.Peer >= p {
				continue
			}
			out = append(out, commPair{e.Name, e.Rank, e.Peer, int64(e.Bytes)})
			if e.Name != "" {
				out = append(out, commPair{"", e.Rank, e.Peer, int64(e.Bytes)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	n := 0
	for _, c := range out {
		if n > 0 && out[n-1].phase == c.phase && out[n-1].src == c.src && out[n-1].dst == c.dst {
			out[n-1].bytes += c.bytes
			continue
		}
		out[n] = c
		n++
	}
	return out[:n]
}

// MessageCount returns the number of send events in the given phase ("" for
// all phases).
func (l *Log) MessageCount(phase string) int { return len(l.Sends(phase)) }

// TotalBytes returns the bytes sent during the given phase ("" for all).
func (l *Log) TotalBytes(phase string) int64 {
	var total int64
	for _, e := range l.Sends(phase) {
		total += int64(e.Bytes)
	}
	return total
}

// PhaseAgg is one row of a per-phase aggregation, keyed by phase name.
type PhaseAgg struct {
	Phase    string
	Bytes    int64
	Messages int64
	Seconds  float64 // summed phase-span seconds across ranks
}

// PhaseSummary aggregates the stream per phase name: bytes and message
// counts from send events, virtual seconds from phase-end spans. Rows are
// sorted by phase name (collect-then-sort keeps the view deterministic).
func (l *Log) PhaseSummary() []PhaseAgg {
	idx := map[string]int{}
	var rows []PhaseAgg
	row := func(name string) *PhaseAgg {
		if i, ok := idx[name]; ok {
			return &rows[i]
		}
		idx[name] = len(rows)
		rows = append(rows, PhaseAgg{Phase: name})
		return &rows[len(rows)-1]
	}
	for _, evs := range l.ByRank {
		for _, e := range evs {
			switch e.Kind {
			case KindSend:
				r := row(e.Name)
				r.Bytes += int64(e.Bytes)
				r.Messages++
			case KindPhaseEnd:
				row(e.Name).Seconds += e.Dur()
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Phase < rows[j].Phase })
	return rows
}

// PhaseBytes returns the total bytes sent per phase name.
func (l *Log) PhaseBytes() map[string]int64 {
	out := map[string]int64{}
	for _, r := range l.PhaseSummary() {
		if r.Bytes > 0 {
			out[r.Phase] = r.Bytes
		}
	}
	return out
}

// PhaseMessages returns the number of messages sent per phase name.
func (l *Log) PhaseMessages() map[string]int64 {
	out := map[string]int64{}
	for _, r := range l.PhaseSummary() {
		if r.Messages > 0 {
			out[r.Phase] = r.Messages
		}
	}
	return out
}

// CounterRow is one named counter total, summed across all ranks.
type CounterRow struct {
	Name  string
	Value float64
}

// Counters sums KindCounter events by name across all ranks, sorted by
// name.
func (l *Log) Counters() []CounterRow {
	var rows []CounterRow
	for _, a := range l.aggs {
		if !a.gauge {
			rows = append(rows, CounterRow{Name: a.name, Value: a.v})
		}
	}
	idx := map[string]int{}
	for _, evs := range l.samples() {
		for _, e := range evs {
			if e.Kind != KindCounter {
				continue
			}
			if i, ok := idx[e.Name]; ok {
				rows[i].Value += e.Value
			} else {
				idx[e.Name] = len(rows)
				rows = append(rows, CounterRow{Name: e.Name, Value: e.Value})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// Counter returns the cross-rank sum of the named counter.
func (l *Log) Counter(name string) float64 {
	var total float64
	for _, a := range l.aggs {
		if !a.gauge && a.name == name {
			total += a.v
		}
	}
	for _, evs := range l.samples() {
		for _, e := range evs {
			if e.Kind == KindCounter && e.Name == name {
				total += e.Value
			}
		}
	}
	return total
}

// GaugeRow is one named gauge high-water mark: the maximum sampled Value
// across all ranks and times.
type GaugeRow struct {
	Name string
	Max  float64
}

// GaugeHighWater returns the per-name maximum of every gauge in the log,
// sorted by name. This is the view behind the redist/peak_bytes meter:
// the largest staged-bytes sample any rank reported.
func (l *Log) GaugeHighWater() []GaugeRow {
	var rows []GaugeRow
	for _, a := range l.aggs {
		if a.gauge {
			rows = append(rows, GaugeRow{Name: a.name, Max: a.v})
		}
	}
	idx := map[string]int{}
	for _, evs := range l.samples() {
		for _, e := range evs {
			if e.Kind != KindGauge {
				continue
			}
			if i, ok := idx[e.Name]; ok {
				if e.Value > rows[i].Max {
					rows[i].Max = e.Value
				}
			} else {
				idx[e.Name] = len(rows)
				rows = append(rows, GaugeRow{Name: e.Name, Max: e.Value})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// GaugeMax returns the cross-rank maximum sample of the named gauge, and
// whether the gauge appears in the log at all.
func (l *Log) GaugeMax(name string) (float64, bool) {
	for _, a := range l.aggs {
		if a.gauge && a.name == name {
			return a.v, true
		}
	}
	max, found := 0.0, false
	for _, evs := range l.samples() {
		for _, e := range evs {
			if e.Kind != KindGauge || e.Name != name {
				continue
			}
			if !found || e.Value > max {
				max = e.Value
			}
			found = true
		}
	}
	return max, found
}

// PhaseGaugeRow is one phase's high-water mark of a gauge.
type PhaseGaugeRow struct {
	Phase string
	Max   float64
}

// PhaseGaugeHighWater attributes every sample of the named gauge to the
// emitting rank's enclosing phase (tracked from explicit
// PhaseBegin/PhaseEnd pairs; samples outside any explicit phase fall
// under "") and returns the per-phase maxima sorted by phase name.
// Synthesized phase spans (AddPhase emits only a PhaseEnd) carry no begin
// marker and do not capture samples.
func (l *Log) PhaseGaugeHighWater(name string) []PhaseGaugeRow {
	idx := map[string]int{}
	var rows []PhaseGaugeRow
	for _, evs := range l.ByRank {
		var stack []string
		for _, e := range evs {
			switch e.Kind {
			case KindPhaseBegin:
				stack = append(stack, e.Name)
			case KindPhaseEnd:
				if len(stack) > 0 && stack[len(stack)-1] == e.Name {
					stack = stack[:len(stack)-1]
				}
			case KindGauge:
				if e.Name != name {
					continue
				}
				phase := ""
				if len(stack) > 0 {
					phase = stack[len(stack)-1]
				}
				if i, ok := idx[phase]; ok {
					if e.Value > rows[i].Max {
						rows[i].Max = e.Value
					}
				} else {
					idx[phase] = len(rows)
					rows = append(rows, PhaseGaugeRow{Phase: phase, Max: e.Value})
				}
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Phase < rows[j].Phase })
	return rows
}

// PhaseNames returns the sorted distinct phase names appearing in
// phase-end events.
func (l *Log) PhaseNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, evs := range l.ByRank {
		for _, e := range evs {
			if e.Kind == KindPhaseEnd && !seen[e.Name] {
				seen[e.Name] = true
				names = append(names, e.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}
