package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/vmpi"
)

// Span is one timed interval around a call into a layer. Spans come only
// from this package: outside the world (iteration, vmpi.Run, verify)
// and inside the rank body on rank 0. The collectives keep ranks in step, so
// a rank-0 span is the world's time in that call, including time rank 0 sits
// parked while other ranks run.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	Rank     int    `json:"rank"` // -1 outside the world
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s Span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// noSpan is the id begin returns when tracing is off or the caller is not
// the recording rank; end ignores it.
const noSpan = -1

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so untraced iterations pay one nil check per call site.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []Span
	workload string
	// world is the open vmpi.Run span that rank-0 spans are parented to.
	world int
	// bodyStart/bodyEnd hold every rank's body start and end stamp in
	// preallocated slots, so vmpi.world_overhead_s is exact.
	bodyStart, bodyEnd []int64
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload, world: noSpan}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// add appends a span and returns its id. The caller holds t.mu. A workload
// has one traced iteration, so Iter stays 0.
func (t *tracer) add(parent int, name, layer string, rank int, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Rank: rank, StartNS: start, EndNS: end,
	})
	return id
}

func (t *tracer) begin(parent int, name, layer string, rank int) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(parent, name, layer, rank, t.now(), 0)
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNS = t.now()
	t.mu.Unlock()
}

// rank0 opens a span on rank 0 only, parented to the open vmpi.Run span.
// The rank test lives here and wraps no collective, so a call site
//
//	id := tr.rank0(c, ...); collective(c); tr.end(id)
//
// keeps every rank on the same collective sequence (parlint collsym).
func (t *tracer) rank0(c *vmpi.Comm, name, layer string) int {
	if t == nil || c.Rank() != 0 {
		return noSpan
	}
	return t.begin(t.world, name, layer, 0)
}

// openWorld starts the vmpi.Run span of an iteration and sizes the per-rank
// stamp slots.
func (t *tracer) openWorld(parent, ranks int) int {
	if t == nil {
		return noSpan
	}
	t.bodyStart = make([]int64, ranks)
	t.bodyEnd = make([]int64, ranks)
	t.world = t.begin(parent, "vmpi.Run", "vmpi", -1)
	return t.world
}

func (t *tracer) stampStart(c *vmpi.Comm) {
	if t != nil {
		t.bodyStart[c.Rank()] = t.now()
	}
}

func (t *tracer) stampEnd(c *vmpi.Comm) {
	if t != nil {
		t.bodyEnd[c.Rank()] = t.now()
	}
}

// closeWorld ends the vmpi.Run span, adds the two spans rank 0 cannot see
// (the world's start-up before its body runs and the drain after it
// returns), and returns the world overhead: the vmpi.Run span minus the
// longest rank body.
func (t *tracer) closeWorld() (overheadSeconds float64) {
	if t == nil || t.world == noSpan {
		return 0
	}
	t.end(t.world)
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.spans[t.world]
	longest := int64(0)
	for r := range t.bodyEnd {
		if d := t.bodyEnd[r] - t.bodyStart[r]; d > longest {
			longest = d
		}
	}
	if t.bodyEnd[0] > 0 {
		t.add(w.ID, "world.start", "vmpi", -1, w.StartNS, t.bodyStart[0])
		t.add(w.ID, "world.drain", "vmpi", -1, t.bodyEnd[0], w.EndNS)
	}
	t.world = noSpan
	return float64(w.EndNS-w.StartNS-longest) / 1e9
}

// children returns the spans parented to id, in recording order.
func (t *tracer) children(id int) []Span {
	var out []Span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// coverage is the share of span id that its children cover (1 − self time
// share): the acceptance check that the rank-0 spans account for the run.
func (t *tracer) coverage(id int) float64 {
	total := t.spans[id].seconds()
	if total <= 0 {
		return 0
	}
	covered := 0.0
	for _, c := range t.children(id) {
		covered += c.seconds()
	}
	return covered / total
}

// writeSpans writes the span file: a JSON array, one object per span.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
