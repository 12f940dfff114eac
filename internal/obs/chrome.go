package obs

import (
	"bytes"
	"io"
	"strconv"
)

// WriteChromeTrace writes the log in Chrome trace-event JSON (the format
// read by chrome://tracing and Perfetto): one "process" per world rank,
// phase spans / collectives / barrier waits as complete ("X") events and
// counters/gauges as counter ("C") events, all on the virtual-time axis in
// microseconds. Wall-clock stamps are deliberately excluded so the export
// is byte-identical across host parallelism levels. An aggregate-only log
// fails with ErrNoEvents.
func WriteChromeTrace(w io.Writer, l *Log) error {
	if !l.HasEvents() {
		return ErrNoEvents
	}
	var buf bytes.Buffer
	buf.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(line []byte) {
		if !first {
			buf.WriteString(",\n")
		}
		first = false
		buf.Write(line)
	}
	var line []byte
	for rank, evs := range l.ByRank {
		// Process metadata: name each rank's timeline.
		line = line[:0]
		line = append(line, `{"name":"process_name","ph":"M","pid":`...)
		line = strconv.AppendInt(line, int64(rank), 10)
		line = append(line, `,"tid":0,"args":{"name":"rank `...)
		line = strconv.AppendInt(line, int64(rank), 10)
		line = append(line, `"}}`...)
		emit(line)
		for _, e := range evs {
			line = line[:0]
			switch e.Kind {
			case KindPhaseEnd, KindCollective, KindBarrier:
				name := e.Name
				cat := "phase"
				switch e.Kind {
				case KindCollective:
					cat = "collective"
				case KindBarrier:
					cat = "barrier"
					if name == "" {
						name = "barrier"
					}
				}
				line = append(line, `{"name":`...)
				line = strconv.AppendQuote(line, name)
				line = append(line, `,"cat":"`...)
				line = append(line, cat...)
				line = append(line, `","ph":"X","pid":`...)
				line = strconv.AppendInt(line, int64(rank), 10)
				line = append(line, `,"tid":0,"ts":`...)
				line = appendMicros(line, e.T)
				line = append(line, `,"dur":`...)
				line = appendMicros(line, e.Dur())
				line = append(line, '}')
			case KindCounter, KindGauge:
				line = append(line, `{"name":`...)
				line = strconv.AppendQuote(line, e.Name)
				line = append(line, `,"ph":"C","pid":`...)
				line = strconv.AppendInt(line, int64(rank), 10)
				line = append(line, `,"tid":0,"ts":`...)
				line = appendMicros(line, e.T)
				line = append(line, `,"args":{"value":`...)
				line = strconv.AppendFloat(line, e.Value, 'g', -1, 64)
				line = append(line, `}}`...)
			default:
				continue
			}
			emit(line)
		}
	}
	buf.WriteString("\n]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// appendMicros formats virtual seconds as microseconds with fixed
// 3-decimal precision — deterministic and fine-grained enough for the
// sub-microsecond overheads of the machine model.
func appendMicros(dst []byte, sec float64) []byte {
	return strconv.AppendFloat(dst, sec*1e6, 'f', 3, 64)
}
