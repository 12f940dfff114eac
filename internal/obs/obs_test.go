package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleLog() *Log {
	b0 := NewBuffer(0)
	b1 := NewBuffer(1)
	b0.Record(Event{Kind: KindPhaseBegin, Name: "sort", T: 0})
	b0.Record(Event{Kind: KindSend, Name: "sort", Peer: 1, Tag: 201, Bytes: 64, T: 0.1, T2: 0.2})
	b0.Record(Event{Kind: KindPhaseEnd, Name: "sort", T: 0, T2: 0.5})
	b0.Record(Event{Kind: KindCounter, Name: "moved", Value: 3, T: 0.5})
	b1.Record(Event{Kind: KindPhaseBegin, Name: "sort", T: 0})
	b1.Record(Event{Kind: KindSend, Name: "sort", Peer: 0, Tag: 201, Bytes: 32, T: 0.1, T2: 0.2})
	b1.Record(Event{Kind: KindBarrier, T: 0.2, T2: 0.3})
	b1.Record(Event{Kind: KindPhaseEnd, Name: "sort", T: 0, T2: 0.4})
	b1.Record(Event{Kind: KindCounter, Name: "moved", Value: 2, T: 0.4})
	b1.Record(Event{Kind: KindGauge, Name: "level", Value: 4, T: 0.4})
	return NewLog([]*Buffer{b0, b1})
}

func TestBufferStampsRank(t *testing.T) {
	b := NewBuffer(7)
	b.Record(Event{Kind: KindCounter, Name: "x", Value: 1})
	if got := b.Events()[0].Rank; got != 7 {
		t.Fatalf("rank stamp = %d, want 7", got)
	}
	if b.Events()[0].WallNS != 0 {
		t.Fatalf("wall stamp without clock = %d, want 0", b.Events()[0].WallNS)
	}
	ticks := int64(0)
	b.Init(7, true, func() int64 { ticks += 5; return ticks })
	b.Record(Event{Kind: KindCounter, Name: "y", Value: 1})
	if got := b.Events()[0].WallNS; got != 5 {
		t.Fatalf("wall stamp = %d, want 5", got)
	}
}

func TestBufferSince(t *testing.T) {
	b := NewBuffer(0)
	b.Record(Event{Kind: KindCounter, Name: "a"})
	mark := b.Len()
	b.Record(Event{Kind: KindCounter, Name: "b"})
	got := b.Since(mark)
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("Since(mark) = %v, want just event b", got)
	}
	if n := len(b.Since(mark + 100)); n != 0 {
		t.Fatalf("Since past end = %d events, want 0", n)
	}
}

func TestTee(t *testing.T) {
	a, b := NewBuffer(0), NewBuffer(0)
	r := Tee(a, nil, b)
	r.Record(Event{Kind: KindCounter, Name: "x"})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("tee fan-out: a=%d b=%d, want 1/1", a.Len(), b.Len())
	}
	if Tee(nil, nil) != nil {
		t.Fatal("Tee with no live recorders should be nil")
	}
	if Tee(a) != Recorder(a) {
		t.Fatal("Tee of one recorder should return it unwrapped")
	}
}

func TestLogViews(t *testing.T) {
	l := sampleLog()
	if got := l.TotalBytes("sort"); got != 96 {
		t.Fatalf("TotalBytes(sort) = %d, want 96", got)
	}
	if got := l.MessageCount(""); got != 2 {
		t.Fatalf("MessageCount = %d, want 2", got)
	}
	if got := l.ActivePairs("sort"); got != 2 {
		t.Fatalf("ActivePairs(sort) = %d, want 2", got)
	}
	m := l.CommMatrix("sort")
	if m[0][1] != 64 || m[1][0] != 32 {
		t.Fatalf("CommMatrix = %v", m)
	}
	if got := l.Counter("moved"); got != 5 {
		t.Fatalf("Counter(moved) = %v, want 5", got)
	}
	rows := l.PhaseSummary()
	if len(rows) != 1 || rows[0].Phase != "sort" || rows[0].Bytes != 96 || rows[0].Messages != 2 {
		t.Fatalf("PhaseSummary = %+v", rows)
	}
	if rows[0].Seconds != 0.9 {
		t.Fatalf("PhaseSummary seconds = %v, want 0.9", rows[0].Seconds)
	}
	if names := l.PhaseNames(); len(names) != 1 || names[0] != "sort" {
		t.Fatalf("PhaseNames = %v", names)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 process_name metadata + 2 phase spans + 1 barrier + 2 counters + 1 gauge.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("trace has %d events, want 8:\n%s", len(doc.TraceEvents), buf.String())
	}
	phases := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["cat"] == "phase" {
			phases++
		}
	}
	if phases != 2 {
		t.Fatalf("trace has %d phase spans, want 2", phases)
	}
}

func TestMetricsDump(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"repro_ranks 2",
		`repro_phase_bytes_total{phase="sort"} 96`,
		`repro_phase_messages_total{phase="sort"} 2`,
		`repro_phase_active_pairs{phase="sort"} 2`,
		`repro_counter_total{name="moved"} 5`,
		`repro_comm_matrix_bytes{phase="sort",src="0",dst="1"} 64`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, out)
		}
	}
}
