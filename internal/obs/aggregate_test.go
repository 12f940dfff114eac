package obs

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// fuzzNames is deliberately small, so one name recurs as counter and as
// gauge and across ranks; it includes the empty name.
var fuzzNames = []string{"", "moved", "redist/peak_bytes", "level", "x"}

// fuzzGauges are the gauge samples the fuzz draws from: all-negative
// runs, both zeros, both infinities, repeated maxima. NaN is left out on
// purpose — "v > max" never replaces a NaN, so a NaN's effect depends on
// where the scan starts, and no emitter produces one.
var fuzzGauges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	-1, -2.5, -1e-300, 1, 7, 7, 0.1, 1e300, math.MaxFloat64,
}

// fuzzMaxOps bounds one input's Record calls, which keeps every counter
// total below 2^12 · 2^32.
const fuzzMaxOps = 4096

// fuzzEvents decodes a byte string into Record calls, four bytes each:
// rank and kind, name, and two value bytes.
func fuzzEvents(data []byte) (ranks []int, events []Event) {
	for ; len(data) >= 4 && len(events) < fuzzMaxOps; data = data[4:] {
		e := Event{
			Kind: Kind(data[0] / 5 % 8),
			Name: fuzzNames[int(data[1])%len(fuzzNames)],
			T:    float64(data[2]),
			T2:   float64(data[2]) + float64(data[3]),
		}
		switch e.Kind {
		case KindCounter:
			// Integers up to 2^32, like every counter the tree emits.
			e.Value = float64(uint64(data[2]) << (data[3] % 25))
			if data[3] == 255 {
				e.Value = 1 << 32
			}
		case KindGauge:
			e.Value = fuzzGauges[int(data[2])%len(fuzzGauges)]
		case KindSend, KindArrive:
			e.Peer, e.Tag, e.Bytes = int(data[2])%5, int(data[3]), int(data[2])*int(data[3])
		}
		ranks = append(ranks, int(data[0])%5)
		events = append(events, e)
	}
	return ranks, events
}

// FuzzAggregatesMatchLog drives the same Record sequence into
// aggregate-only buffers and list-keeping ones and requires the counter
// and gauge views of the two logs, and of a list-literal Log scanning the
// kept events (the reference), to agree bit for bit; the taps must receive
// exactly the kept lists.
//
// Why per-rank regrouping is exact: the scan adds a counter's increments
// one by one in (rank, event) order, the aggregate-only log adds per-rank
// sums in rank order. Every counter emitted into a rank buffer is an
// integer below 2^53 in total (counts, byte meters, 32-bit checksums), so
// no addition rounds and any grouping gives the same float64 — including
// the sign of a zero total, which is -0 only if every term is. A gauge
// maximum is the earliest sample equal to the maximum under either
// grouping.
func FuzzAggregatesMatchLog(f *testing.F) {
	f.Add([]byte{}) // the named seeds are under testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		const p = 5
		agg, kept := make([]*Buffer, p), make([]*Buffer, p)
		aggTaps, keptTaps := make([]*Buffer, p), make([]*Buffer, p)
		for r := range agg {
			agg[r], kept[r] = new(Buffer), new(Buffer)
			agg[r].Init(r, false, nil)
			kept[r].Init(r, true, nil)
			keptTaps[r] = NewBuffer(r)
			kept[r].SetTap(keptTaps[r])
			if r >= 3 {
				// A tap on a buffer that keeps no list: core's case.
				aggTaps[r] = NewBuffer(r)
				agg[r].SetTap(aggTaps[r])
			}
		}
		ranks, events := fuzzEvents(data)
		for i, e := range events {
			agg[ranks[i]].Record(e)
			kept[ranks[i]].Record(e)
		}
		for r := range agg {
			if agg[r].Len() != 0 || agg[r].Events() != nil {
				t.Fatalf("rank %d: aggregate-only buffer kept %d events", r, agg[r].Len())
			}
			if !reflect.DeepEqual(keptTaps[r].Events(), kept[r].Events()) {
				t.Fatalf("rank %d: tap on the kept buffer diverges from its list", r)
			}
			if aggTaps[r] != nil && !reflect.DeepEqual(aggTaps[r].Events(), kept[r].Events()) {
				t.Fatalf("rank %d: tap on the aggregate-only buffer diverges from the kept list", r)
			}
		}
		aggLog, keptLog := NewLog(agg), NewLog(kept)
		ref := &Log{ByRank: keptLog.ByRank}
		if aggLog.HasEvents() || !keptLog.HasEvents() || !ref.HasEvents() {
			t.Fatalf("HasEvents: aggregate-only %v, kept %v, literal %v", aggLog.HasEvents(), keptLog.HasEvents(), ref.HasEvents())
		}
		for _, l := range []*Log{aggLog, keptLog} {
			if got, want := l.Counters(), ref.Counters(); !sameRows(got, want) {
				t.Fatalf("Counters = %v, scan says %v", got, want)
			}
			if got, want := l.GaugeHighWater(), ref.GaugeHighWater(); !sameRows(got, want) {
				t.Fatalf("GaugeHighWater = %v, scan says %v", got, want)
			}
			for _, name := range append([]string{"absent"}, fuzzNames...) {
				if got, want := l.Counter(name), ref.Counter(name); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Counter(%q) = %v, scan says %v", name, got, want)
				}
				got, gotOK := l.GaugeMax(name)
				want, wantOK := ref.GaugeMax(name)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("GaugeMax(%q) = %v, %v, scan says %v, %v", name, got, gotOK, want, wantOK)
				}
			}
		}
	})
}

// sameRows compares two row slices ([]CounterRow or []GaugeRow) name by
// name and value bit by value bit.
func sameRows[R CounterRow | GaugeRow](a, b []R) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		na, va := rowOf(a[i])
		nb, vb := rowOf(b[i])
		if na != nb || math.Float64bits(va) != math.Float64bits(vb) {
			return false
		}
	}
	return true
}

func rowOf(r any) (string, float64) {
	switch r := r.(type) {
	case CounterRow:
		return r.Name, r.Value
	case GaugeRow:
		return r.Name, r.Max
	}
	panic("obs: not a row")
}

// TestAggregateOnlyLog pins the contract of a log without a list: the
// counter and gauge views answer, the per-event views are empty, and the
// exporters fail loudly instead of writing a well-formed empty file.
func TestAggregateOnlyLog(t *testing.T) {
	bufs := make([]*Buffer, 2)
	for r := range bufs {
		bufs[r] = new(Buffer)
		bufs[r].Init(r, false, func() int64 {
			t.Error("wall clock read although nobody listens")
			return 0
		})
		bufs[r].Record(Event{Kind: KindSend, Name: "sort", Peer: 1 - r, Bytes: 64})
		bufs[r].Record(Event{Kind: KindCounter, Name: "moved", Value: float64(r + 2)})
		bufs[r].Record(Event{Kind: KindGauge, Name: "level", Value: float64(-3 - r)})
		if bufs[r].Listening() {
			t.Fatalf("rank %d: aggregate-only buffer claims a listener", r)
		}
	}
	l := NewLog(bufs)
	if l.HasEvents() || l.Ranks() != 2 || l.ByRank[0] != nil || l.ByRank[1] != nil {
		t.Fatalf("HasEvents = %v, ByRank = %v, want an aggregate-only log of 2 ranks", l.HasEvents(), l.ByRank)
	}
	if got := l.Counter("moved"); got != 5 {
		t.Errorf("Counter(moved) = %v, want 5", got)
	}
	if got, ok := l.GaugeMax("level"); !ok || got != -3 {
		t.Errorf("GaugeMax(level) = %v, %v, want -3, true", got, ok)
	}
	if n := l.MessageCount(""); n != 0 {
		t.Errorf("MessageCount = %d on a log without a list", n)
	}
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, l); !errors.Is(err, ErrNoEvents) {
		t.Errorf("WriteChromeTrace error = %v, want ErrNoEvents", err)
	}
	if err := WriteMetrics(&out, l); !errors.Is(err, ErrNoEvents) {
		t.Errorf("WriteMetrics error = %v, want ErrNoEvents", err)
	}
	if out.Len() != 0 {
		t.Errorf("exporters wrote %d bytes before failing", out.Len())
	}
}

// TestSelect checks the per-rank filter the span-only figure exports use.
func TestSelect(t *testing.T) {
	l := sampleLog().Select(func(e Event) bool { return e.Kind != KindSend })
	if !l.HasEvents() || l.Ranks() != 2 {
		t.Fatalf("Select: HasEvents = %v, Ranks = %d", l.HasEvents(), l.Ranks())
	}
	if l.MessageCount("") != 0 || len(l.ByRank[0]) != 3 || len(l.ByRank[1]) != 5 {
		t.Errorf("Select kept %d + %d events and %d sends, want 3 + 5 and 0", len(l.ByRank[0]), len(l.ByRank[1]), l.MessageCount(""))
	}
	if got := l.Counter("moved"); got != 5 {
		t.Errorf("Counter(moved) after Select = %v, want 5", got)
	}
}

// BenchmarkRecord measures one Record call in the two modes: folding a
// counter into the aggregates only (what every untraced run pays), and
// also appending it to the kept list.
func BenchmarkRecord(b *testing.B) {
	events := []Event{
		{Kind: KindCounter, Name: "coupling/moved", Value: 3},
		{Kind: KindGauge, Name: "redist/peak_bytes", Value: 4096},
		{Kind: KindCounter, Name: "coupling/kept", Value: 125},
		{Kind: KindCollective, Name: "allgather", T: 1, T2: 2},
	}
	for _, mode := range []struct {
		name string
		keep bool
	}{{"aggregate", false}, {"kept", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var buf Buffer
			buf.Init(0, mode.keep, nil)
			for _, e := range events {
				buf.Record(e) // the table's entries exist before timing
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&0xffff == 0 {
					// Bound the kept list: a rank records tens of events.
					buf.events = buf.events[:0]
				}
				buf.Record(events[i&3])
			}
		})
	}
}
