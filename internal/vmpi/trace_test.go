package vmpi

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/obs"
)

func TestTraceRecordsMessages(t *testing.T) {
	st := Run(Config{Ranks: 3, Trace: true}, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, []float64{1, 2}, 1, 5)
			Send(c, []byte{9}, 2, 6)
		}
		if c.Rank() == 1 {
			Recv[float64](c, 0, 5)
		}
		if c.Rank() == 2 {
			Recv[byte](c, 0, 6)
		}
	})
	evs := st.Events.Sends("")
	if len(evs) != 2 {
		t.Fatalf("recorded %d send events, want 2", len(evs))
	}
	if evs[0].Rank != 0 || evs[0].Peer != 1 || evs[0].Bytes != 16 || evs[0].Tag != 5 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Peer != 2 || evs[1].Bytes != 1 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[0].T2 <= evs[0].T {
		t.Errorf("arrival %g not after send %g", evs[0].T2, evs[0].T)
	}
	if st.Events.MessageCount("") != 2 {
		t.Errorf("MessageCount = %d", st.Events.MessageCount(""))
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	st := Run(Config{Ranks: 2}, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, []int{1}, 1, 0)
		} else {
			Recv[int](c, 0, 0)
		}
	})
	if n := st.Events.MessageCount(""); n != 0 {
		t.Errorf("%d send events recorded without Config.Trace", n)
	}
}

func TestTraceCommMatrix(t *testing.T) {
	const p = 4
	st := Run(Config{Ranks: p, Trace: true}, func(c *Comm) {
		// Ring exchange: each rank sends 80 bytes to its right neighbor.
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		Send(c, make([]float64, 10), right, 1)
		Recv[float64](c, left, 1)
	})
	m := st.Events.CommMatrix("")
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			want := int64(0)
			if dst == (src+1)%p {
				want = 80
			}
			if m[src][dst] != want {
				t.Errorf("m[%d][%d] = %d, want %d", src, dst, m[src][dst], want)
			}
		}
	}
	if got := st.Events.ActivePairs(""); got != p {
		t.Errorf("ActivePairs = %d, want %d", got, p)
	}
}

func TestTraceMatchesCounters(t *testing.T) {
	st := Run(Config{Ranks: 4, Trace: true}, func(c *Comm) {
		Barrier(c)
		Allgather(c, []int{c.Rank()})
		parts := make([][]float64, 4)
		for i := range parts {
			parts[i] = make([]float64, 3)
		}
		Alltoall(c, parts)
	})
	if got := st.Events.TotalBytes(""); got != st.TotalBytes() {
		t.Errorf("trace bytes %d != counter %d", got, st.TotalBytes())
	}
	if got := st.Events.MessageCount(""); got != int(st.TotalMessages()) {
		t.Errorf("trace messages %d != counter %d", got, st.TotalMessages())
	}
}

func TestTraceNeighborhoodFootprint(t *testing.T) {
	// The footprint analysis distinguishes all-to-all from neighbor-only
	// communication: the property behind the paper's method B + movement
	// optimization.
	const p = 8
	a2a := Run(Config{Ranks: p, Trace: true, Model: netmodel.NewSwitched()}, func(c *Comm) {
		parts := make([][]byte, p)
		for i := range parts {
			parts[i] = []byte{1}
		}
		Alltoall(c, parts)
	})
	ring := Run(Config{Ranks: p, Trace: true, Model: netmodel.NewSwitched()}, func(c *Comm) {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		Send(c, []byte{1}, right, 1)
		Recv[byte](c, left, 1)
	})
	a2aPairs, ringPairs := a2a.Events.ActivePairs(""), ring.Events.ActivePairs("")
	if a2aPairs <= ringPairs {
		t.Errorf("all-to-all footprint (%d pairs) should exceed ring (%d pairs)", a2aPairs, ringPairs)
	}
	if ringPairs != p {
		t.Errorf("ring footprint = %d pairs, want %d", ringPairs, p)
	}
}

// TestMetricsExportAtLargeP exports the metrics of a traced 4096-rank ring
// exchange inside a 64 MB allocation budget: the comm-matrix series are
// accumulated from the send events, not from a dense P × P matrix per
// phase (128 MiB each at this size).
func TestMetricsExportAtLargeP(t *testing.T) {
	const p = 4096
	st := Run(Config{Ranks: p, Trace: true, Workers: 1}, func(c *Comm) {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		c.Phase("ring", func() {
			Send(c, make([]float64, 10), right, 1)
			Recv[float64](c, left, 1)
		})
		Send(c, []byte{1}, left, 2) // outside any phase
		Recv[byte](c, right, 2)
	})
	var before, after runtime.MemStats
	var out bytes.Buffer
	runtime.ReadMemStats(&before)
	if err := obs.WriteMetrics(&out, st.Events); err != nil {
		t.Fatal(err)
	}
	pairs := st.Events.ActivePairs("ring")
	runtime.ReadMemStats(&after)
	if pairs != p {
		t.Errorf("ActivePairs(ring) = %d, want %d", pairs, p)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 64 {
		t.Errorf("metrics export of a %d-rank ring allocated %.0f MB, want <= 64", p, mb)
	}
	for _, want := range []string{
		`repro_phase_active_pairs{phase="ring"} 4096`,
		`repro_comm_matrix_bytes{phase="ring",src="4095",dst="0"} 80`,
		// The "" series report the whole run (see WriteMetrics).
		`repro_phase_active_pairs{phase=""} 8192`,
		`repro_comm_matrix_bytes{phase="",src="0",dst="1"} 80`,
		`repro_comm_matrix_bytes{phase="",src="0",dst="4095"} 1`,
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("metrics dump lacks %q", want)
		}
	}
}
