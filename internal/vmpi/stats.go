package vmpi

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/rankexec"
)

// Stats aggregates the outcome of a Run. All per-rank slices are indexed by
// instance id: the founding ranks 0..Ranks-1 followed by every rank
// admitted by a Resize grow, in admission order. Without resizes this is
// exactly the world rank.
type Stats struct {
	// Clocks holds each rank's final virtual clock in seconds (for a
	// retired rank: its clock at retirement).
	Clocks []float64
	// Admit holds each rank's admission time (0 for founding ranks).
	Admit []float64
	// Retire holds each rank's retirement time, or -1 for ranks still in
	// the world at the end of the run. Retire[i] - Admit[i] is a retired
	// rank's virtual lifetime, the node-seconds integrand of the resize
	// cost curves.
	Retire []float64
	// JoinEpoch holds the world epoch each rank was admitted in.
	JoinEpoch []int
	// Phases holds each rank's accumulated named phase times; an entry is
	// nil for a rank that never timed a phase.
	Phases []map[string]float64
	// BytesSent and MessagesSent are per-rank communication counters.
	BytesSent    []int64
	MessagesSent []int64
	// Values holds each rank's result value (whatever the rank function
	// stored via Comm.SetResult), indexed by instance id.
	Values []any
	// Epochs is the number of world epochs the run went through (1 when
	// Resize was never called).
	Epochs int
	// FinalSize is the world size of the last epoch.
	FinalSize int
	// Events is the run's observability log, never nil, one ByRank entry
	// per instance. Its counter and gauge views (Counter, Counters,
	// GaugeMax, GaugeHighWater) answer on every run, from the ranks'
	// running aggregates. The event lists — phase, collective, barrier,
	// counter/gauge and message events, behind the per-event views (Sends,
	// CommMatrix, ActivePairs, PhaseSummary, ...) and the exporters — are
	// kept only under Config.Trace; otherwise every ByRank entry is nil
	// and Events.HasEvents is false.
	Events *obs.Log
	// Exec holds the executor's host-side meters. Host-domain only: these
	// values depend on the host's scheduling and must never feed golden
	// exports.
	Exec *ExecStats
}

// ExecStats meters the executor's host-side behaviour for one Run. These
// are host-domain quantities — they depend on scheduling and never enter
// the virtual event stream or the golden exports.
type ExecStats struct {
	// Parks counts blocking receive waits (a receive that found its
	// message queued parks zero times).
	Parks int64
	// Wakeups counts deliveries that woke (or pre-empted the park of) a
	// waiting rank.
	Wakeups int64
	// Spawned counts rank goroutines actually created (== ranks, unless
	// the run aborted before every rank was first dispatched).
	Spawned int64
	// MaxRunnable is the high-water mark of the runnable-rank queue.
	MaxRunnable int
	// PeakResident is the high-water mark of live rank goroutines — the
	// executor's host-memory footprint driver at large P.
	PeakResident int
	// MaxSlots is the high-water mark of concurrently held run slots
	// (base + budget extras).
	MaxSlots int
}

func execStatsFrom(s rankexec.Stats) *ExecStats {
	return &ExecStats{
		Parks:        s.Parks,
		Wakeups:      s.Wakeups,
		Spawned:      s.Spawned,
		MaxRunnable:  s.MaxRunnable,
		PeakResident: s.PeakResident,
		MaxSlots:     s.MaxSlots,
	}
}

// MaxClock returns the maximum final clock — the virtual wall-clock time of
// the whole run.
func (s *Stats) MaxClock() float64 {
	max := 0.0
	for _, c := range s.Clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// NodeSeconds returns the summed virtual node-allocation time of all
// ranks — the machine cost of the run. A retired rank is billed from its
// admission to its retirement; a rank alive in the final epoch is billed to
// the end of the run (the machine holds its node until teardown). Shrinking
// the world mid-run genuinely reduces the figure, while static
// over-provisioning pays for idle ranks until the end.
func (s *Stats) NodeSeconds() float64 {
	end := s.MaxClock()
	total := 0.0
	for i := range s.Clocks {
		stop := end
		if i < len(s.Retire) && s.Retire[i] >= 0 {
			stop = s.Retire[i]
		}
		total += stop - s.Admit[i]
	}
	return total
}

// MaxPhase returns the maximum across ranks of the accumulated time of the
// named phase. Ranks without the phase contribute zero.
func (s *Stats) MaxPhase(name string) float64 {
	max := 0.0
	for _, p := range s.Phases {
		if v := p[name]; v > max {
			max = v
		}
	}
	return max
}

// PhaseNames returns the sorted union of phase names across ranks.
func (s *Stats) PhaseNames() []string {
	set := map[string]bool{}
	for _, p := range s.Phases {
		for k := range p {
			set[k] = true
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TotalBytes returns the total bytes sent by all ranks.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for _, b := range s.BytesSent {
		t += b
	}
	return t
}

// TotalMessages returns the total number of messages sent by all ranks.
func (s *Stats) TotalMessages() int64 {
	var t int64
	for _, m := range s.MessagesSent {
		t += m
	}
	return t
}
