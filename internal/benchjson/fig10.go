package benchjson

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/paperbench"
)

// Figure 10 reports (the BENCH_3.json series) extend the per-figure
// measurements with per-rank-count rows: wall clock, post-run memory, and
// the event executor's meters at each sweep point. The virtual-second
// metrics stay in Figure.Metrics like every other figure; the rows carry
// the host-side quantities the large-P engine work is judged by.

// RankRow is one rank count's host-side measurements inside a Figure 10
// sweep.
type RankRow struct {
	Ranks       int     `json:"ranks"`
	WallSeconds float64 `json:"wall_seconds"`
	// HeapInuseBytes and SysBytes are runtime.MemStats snapshots taken
	// right after the rank count's experiments finish: live heap after a
	// forced collection, and the total memory obtained from the OS (a
	// peak-footprint proxy — the Go runtime rarely returns memory within a
	// run, so Sys ratchets to the sweep's high-water mark).
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
	// Executor meters summed over the rank count's experiments.
	ExecParks   int64 `json:"exec_parks"`
	ExecWakeups int64 `json:"exec_wakeups"`
	ExecSpawned int64 `json:"exec_spawned"`
}

// CollectFig10 runs the Figure 10 sweep on both machines and returns a
// report with one figure per machine, per-rank-count rows attached. Rank
// counts are timed one after another (experiments inside a rank count still
// share the worker pool), so each row's wall clock and memory snapshot is
// attributable to that rank count alone.
func CollectFig10(rankList []int) *Report {
	rep := &Report{
		Schema:    Schema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host:      hostInfo(),
		Config:    Config{RankList: rankList},
	}
	machines := []struct {
		name string
		m    paperbench.Machine
	}{
		{"fig10l", paperbench.JuRoPA()},
		{"fig10r", paperbench.Juqueen()},
	}
	for _, mc := range machines {
		fig := Figure{Name: mc.name}
		paperbench.HostObs().Take() // discard events from before this figure
		for _, p := range rankList {
			start := time.Now()
			pt := paperbench.Fig10Eval(mc.m, p)
			wall := time.Since(start).Seconds()
			paperbench.RecordPoolStats()
			row := RankRow{Ranks: p, WallSeconds: wall}
			// Collect before snapshotting so HeapInuse measures live
			// memory, not GC timing: without this the row is dominated by
			// whatever garbage the last collection happened to leave behind
			// (earlier reports show multi-GiB "heap" at 64 ranks —
			// leftovers from the preceding rank count). The GC pause lands
			// outside the row's wall-clock window. SysBytes is unaffected
			// and remains the peak-footprint number.
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			row.HeapInuseBytes = m.HeapInuse
			row.SysBytes = m.Sys
			names, totals := obs.SumCounters(paperbench.HostObs().Take())
			for i, name := range names {
				switch name {
				case paperbench.JobCounter:
					fig.Jobs += int(totals[i])
				case paperbench.JobQueueCounter:
					fig.QueueSeconds += totals[i]
				case paperbench.ExecParksCounter:
					row.ExecParks = int64(totals[i])
				case paperbench.ExecWakeupsCounter:
					row.ExecWakeups = int64(totals[i])
				case paperbench.ExecSpawnedCounter:
					row.ExecSpawned = int64(totals[i])
				}
			}
			base := fmt.Sprintf("ranks%d", p)
			fig.Metrics = append(fig.Metrics,
				Metric{base + "/merge", pt.Merge},
				Metric{base + "/neighborhood", pt.Neighborhood},
			)
			fig.RankRows = append(fig.RankRows, row)
			fig.WallSeconds += wall
		}
		rep.Figures = append(rep.Figures, fig)
	}
	return rep
}
