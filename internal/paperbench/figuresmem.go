package paperbench

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/psort"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// --- Figure M: memory-bounded redistribution plans -----------------------
//
// The redistribution methods of the paper materialize one send buffer per
// destination before the exchange, so the per-rank staging peak is the
// whole outgoing volume — at this figure's system size, four times the
// configured budget. The figure demonstrates the memory-bounded planner:
// the same exchange, decomposed by the redist planner into bounded rounds,
// runs clean under the budget with a byte-identical result, and the three
// sort strategies run under the identical budget for comparison:
//
//   - exchange/unbounded: the classic single all-to-all, metered
//     (Options.Meter) — its staged peak is the full outgoing volume and
//     exceeds the budget;
//   - exchange/planned: the same routing under
//     vmpi.Config.MaxExchangeBytes — staged peak ≤ budget, more rounds,
//     identical checksum;
//   - sort/partition: SortPartition, whose block exchange runs through
//     the plan-backed redist.ExchangeBlocks in bounded rounds;
//   - sort/merge: SortMerge, memory-bounded by construction (pairwise
//     t-negotiated exchanges; no staged peak is metered);
//   - sort/rotational: SortRotational, log P single-partner rotations —
//     staging one partner buffer per round (at most the local volume,
//     independent of P), metered.
//
// The checksum is an order-sensitive fold over the globally concatenated
// key sequence (global position from an exclusive scan), so equal values
// witness identical results: unbounded vs planned must match exactly, and
// the three sorts must agree on the sorted key sequence regardless of
// their different element routes. Reported peak bytes are the cross-rank
// maximum of the redist/peak_bytes gauge — a pure function of the
// routing, deterministic at any -j.

const (
	figMemRanks = 32
	// figMemElems per rank; with 32-byte records each rank stages
	// figMemElems*32 = 128 KiB for the unbounded exchange.
	figMemElems = 4096
	// figMemBudget is the staging budget: a quarter of the unbounded
	// peak, so the classic path exhausts it and the planner needs
	// multiple rounds.
	figMemBudget = 32 << 10

	figMemRoundsGauge    = "figmem/rounds"
	figMemChecksumGauge  = "figmem/checksum"
	figMemRecordBytes    = 32
	figMemChecksumWindow = 0xffffffff
)

// memRec is the figure's particle record: a sort key plus position
// payload, 32 bytes like the paper's coordinate triples plus identity.
type memRec struct {
	Key     uint64
	X, Y, Z float64
}

// figMemRecords builds rank r's deterministic records.
func figMemRecords(r int) []memRec {
	recs := make([]memRec, figMemElems)
	for i := range recs {
		k := splitmix64(uint64(r)*figMemElems + uint64(i))
		recs[i] = memRec{Key: k, X: float64(i), Y: float64(r), Z: float64(i % 7)}
	}
	return recs
}

// figMemChecksum folds the local result into an order-sensitive 32-bit
// checksum weighted by global position, and emits it as a counter so the
// cross-rank sum (exact in float64: 32 ranks × 2^32) lands in the stats.
func figMemChecksum(c *vmpi.Comm, out []memRec) {
	off := vmpi.Exscan(c, []int64{int64(len(out))}, vmpi.Sum[int64])[0]
	chk := uint64(0)
	for j, r := range out {
		fold := uint64(uint32(r.Key ^ r.Key>>32))
		chk = (chk + uint64(off+int64(j)+1)*fold) & figMemChecksumWindow
	}
	c.Counter(figMemChecksumGauge, float64(chk))
}

// figMemExchangeBody scatters every record to a key-chosen destination
// rank — the fine-grained redistribution pattern — through an explicit
// plan. With meter set the plan runs unbounded but reports its staged
// peak; otherwise the communicator's configured budget decides.
func figMemExchangeBody(meter bool) func(c *vmpi.Comm) {
	return func(c *vmpi.Comm) {
		p := c.Size()
		recs := figMemRecords(c.Rank())
		pl := redist.NewPlan(c, len(recs), redist.ToRank(func(i int) int {
			return int(splitmix64(recs[i].Key) % uint64(p))
		}), redist.Options{Meter: meter})
		out := redist.Execute(pl, recs)
		if c.Rank() == 0 {
			c.Gauge(figMemRoundsGauge, float64(pl.Rounds(figMemRecordBytes)))
		}
		pl.Free()
		figMemChecksum(c, out)
	}
}

// figMemSortBody runs one sort strategy over the figure's records under
// the communicator's configured budget.
func figMemSortBody(sort func(c *vmpi.Comm, recs []memRec, key func(memRec) uint64) []memRec) func(c *vmpi.Comm) {
	return func(c *vmpi.Comm) {
		figMemChecksum(c, sort(c, figMemRecords(c.Rank()), func(r memRec) uint64 { return r.Key }))
	}
}

// memRow is one strategy's outcome.
type memRow struct {
	Op       string
	Strategy string
	// PeakBytes is the cross-rank maximum staged-bytes sample of the
	// redist/peak_bytes meter; 0 when the strategy emits none (merge).
	PeakBytes int64
	// Rounds is the planner's round count for the exchange rows (0 for
	// the sorts, whose round structure is their own).
	Rounds int
	// Time is the virtual time to solution (max clock).
	Time float64
	// Checksum is the cross-rank order-sensitive result checksum.
	Checksum uint64
}

// memRowOf reduces one run's stats to a figure row.
func memRowOf(op, strategy string, st *vmpi.Stats) memRow {
	peak, _ := st.Events.GaugeMax(redist.MeterPeakBytes)
	rounds, _ := st.Events.GaugeMax(figMemRoundsGauge)
	return memRow{
		Op:        op,
		Strategy:  strategy,
		PeakBytes: int64(peak),
		Rounds:    int(rounds),
		Time:      st.MaxClock(),
		Checksum:  uint64(st.Events.Counter(figMemChecksumGauge)),
	}
}

// figMemConfig is the world of every Figure M cell on machine m.
func figMemConfig(m Machine, budget int64, workers int) vmpi.Config {
	return vmpi.Config{
		Ranks:            figMemRanks,
		Model:            m.Model(figMemRanks),
		ComputeScale:     m.ComputeScale,
		Workers:          workers,
		MaxExchangeBytes: budget,
	}
}

// figMem measures the five strategies on each machine of ms as independent
// experiments in one scheduler batch.
func figMem(ms []Machine, workers, jobs int) [][]memRow {
	strategies := []struct {
		op, strategy string
		budget       int64
		body         func(c *vmpi.Comm)
	}{
		{"exchange", "unbounded", 0, figMemExchangeBody(true)},
		{"exchange", "planned", figMemBudget, figMemExchangeBody(false)},
		{"sort", "partition", figMemBudget, figMemSortBody(psort.SortPartition[memRec])},
		{"sort", "merge", figMemBudget, figMemSortBody(psort.SortMerge[memRec])},
		{"sort", "rotational", figMemBudget, figMemSortBody(psort.SortRotational[memRec])},
	}
	return onMachines(ms, jobs, func(m Machine) []func() memRow {
		cells := make([]func() memRow, len(strategies))
		for i, s := range strategies {
			cells[i] = func() memRow {
				return memRowOf(s.op, s.strategy, vmpi.Run(figMemConfig(m, s.budget, workers), s.body))
			}
		}
		return cells
	})
}

// figMemTrace is Figure M's traced cell: the planned exchange replayed
// once, with its span and sample events for the Chrome-trace and metrics
// exports. The redist/peak_bytes gauge samples and counter totals appear
// on the exported timeline.
func figMemTrace(workers int) *obs.Log {
	cfg := figMemConfig(JuRoPA(), figMemBudget, workers)
	cfg.Trace = true
	return spanEvents(vmpi.Run(cfg, figMemExchangeBody(false)).Events)
}

// figMemCount renders a count column with "-" for not-applicable zeros.
func figMemCount(v int64) string {
	if v == 0 {
		return fmt.Sprintf("%10s", "-")
	}
	return fmt.Sprintf("%10d", v)
}

// renderFigMem prints a Figure M panel.
func renderFigMem(machine string, rows []memRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure M (%s): memory-bounded redistribution plans\n", machine)
	fmt.Fprintf(&b, "(%d ranks, %d records/rank, %d B records, budget %d B staged per round)\n",
		figMemRanks, figMemElems, figMemRecordBytes, figMemBudget)
	fmt.Fprintf(&b, "%-9s %-11s %10s %10s %s %12s\n",
		"op", "strategy", "peak-bytes", "rounds", fmt.Sprintf("%10s", "time"), "checksum")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-11s %s %s %s %12d\n",
			r.Op, r.Strategy, figMemCount(r.PeakBytes), figMemCount(int64(r.Rounds)),
			fmtSeconds(r.Time), r.Checksum)
	}
	return b.String()
}
