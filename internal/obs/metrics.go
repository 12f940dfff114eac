package obs

import (
	"bytes"
	"errors"
	"io"
	"strconv"
)

// ErrNoEvents is returned by the exporters for an aggregate-only log: the
// run was not asked to keep its event list (vmpi.Config.Trace), so there
// is no timeline or comm matrix to write.
var ErrNoEvents = errors.New("obs: the run kept no event list (set Trace to export it)")

// WriteMetrics writes the log as a Prometheus-style text metrics dump:
// per-phase communication volume and footprint, per-phase virtual seconds,
// cross-rank counter totals, and the nonzero comm-matrix entries of each
// phase. All series are emitted in sorted order so the dump is
// byte-deterministic for a deterministic run. An aggregate-only log
// fails with ErrNoEvents.
func WriteMetrics(w io.Writer, l *Log) error {
	if !l.HasEvents() {
		return ErrNoEvents
	}
	var buf bytes.Buffer
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	buf.WriteString("# HELP repro_ranks Number of ranks in the run.\n# TYPE repro_ranks gauge\n")
	buf.WriteString("repro_ranks " + strconv.Itoa(l.Ranks()) + "\n")

	rows := l.PhaseSummary()
	buf.WriteString("# HELP repro_phase_bytes_total Bytes sent during the phase (all ranks).\n# TYPE repro_phase_bytes_total counter\n")
	for _, r := range rows {
		if r.Bytes > 0 {
			buf.WriteString("repro_phase_bytes_total{phase=" + strconv.Quote(r.Phase) + "} " + strconv.FormatInt(r.Bytes, 10) + "\n")
		}
	}
	buf.WriteString("# HELP repro_phase_messages_total Messages sent during the phase (all ranks).\n# TYPE repro_phase_messages_total counter\n")
	for _, r := range rows {
		if r.Messages > 0 {
			buf.WriteString("repro_phase_messages_total{phase=" + strconv.Quote(r.Phase) + "} " + strconv.FormatInt(r.Messages, 10) + "\n")
		}
	}
	buf.WriteString("# HELP repro_phase_seconds_total Virtual seconds spent in the phase, summed over ranks.\n# TYPE repro_phase_seconds_total counter\n")
	for _, r := range rows {
		if r.Seconds > 0 {
			buf.WriteString("repro_phase_seconds_total{phase=" + strconv.Quote(r.Phase) + "} " + num(r.Seconds) + "\n")
		}
	}
	buf.WriteString("# HELP repro_phase_active_pairs Ordered (src,dst) pairs that exchanged bytes in the phase.\n# TYPE repro_phase_active_pairs gauge\n")
	pairs := l.commPairs()
	for _, r := range rows {
		if r.Messages > 0 {
			buf.WriteString("repro_phase_active_pairs{phase=" + strconv.Quote(r.Phase) + "} " + strconv.Itoa(activePairs(pairs, r.Phase)) + "\n")
		}
	}

	counters := l.Counters()
	if len(counters) > 0 {
		buf.WriteString("# HELP repro_counter_total Named counters summed across ranks.\n# TYPE repro_counter_total counter\n")
		for _, c := range counters {
			buf.WriteString("repro_counter_total{name=" + strconv.Quote(c.Name) + "} " + num(c.Value) + "\n")
		}
	}

	gauges := l.GaugeHighWater()
	if len(gauges) > 0 {
		buf.WriteString("# HELP repro_gauge_high_water Named gauge maxima across ranks and time.\n# TYPE repro_gauge_high_water gauge\n")
		for _, g := range gauges {
			buf.WriteString("repro_gauge_high_water{name=" + strconv.Quote(g.Name) + "} " + num(g.Max) + "\n")
		}
	}

	buf.WriteString("# HELP repro_comm_matrix_bytes Nonzero per-phase comm-matrix entries.\n# TYPE repro_comm_matrix_bytes gauge\n")
	for _, r := range rows {
		if r.Messages == 0 {
			continue
		}
		for _, c := range pairs {
			if c.phase == r.Phase && c.bytes > 0 {
				buf.WriteString("repro_comm_matrix_bytes{phase=" + strconv.Quote(c.phase) +
					",src=\"" + strconv.Itoa(c.src) + "\",dst=\"" + strconv.Itoa(c.dst) + "\"} " +
					strconv.FormatInt(c.bytes, 10) + "\n")
			}
		}
	}

	_, err := w.Write(buf.Bytes())
	return err
}
