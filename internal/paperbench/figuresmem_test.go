package paperbench

import (
	"strings"
	"testing"

	"repro/internal/redist"
)

// figMemRowsByKey indexes a figMem panel by op/strategy.
func figMemRowsByKey(t *testing.T, rows []memRow) map[string]memRow {
	t.Helper()
	m := make(map[string]memRow, len(rows))
	for _, r := range rows {
		m[r.Op+"/"+r.Strategy] = r
	}
	return m
}

// TestFigMemBudget checks the figure's headline claims: the unbounded
// exchange's staged peak exceeds the budget, the planned exchange of the
// identical routing runs under it in more than one round with the exact
// same result, and all three sorts agree on the sorted key sequence.
func TestFigMemBudget(t *testing.T) {
	rows := figMem([]Machine{JuRoPA()}, 0, 0)[0]
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	m := figMemRowsByKey(t, rows)

	unb, pl := m["exchange/unbounded"], m["exchange/planned"]
	if unb.PeakBytes <= figMemBudget {
		t.Errorf("unbounded exchange peak %d does not exhaust budget %d", unb.PeakBytes, figMemBudget)
	}
	if pl.PeakBytes <= 0 || pl.PeakBytes > figMemBudget {
		t.Errorf("planned exchange peak %d outside (0, %d]", pl.PeakBytes, figMemBudget)
	}
	if pl.Rounds <= 1 {
		t.Errorf("planned exchange took %d rounds, want several", pl.Rounds)
	}
	if unb.Checksum == 0 || pl.Checksum != unb.Checksum {
		t.Errorf("planned exchange checksum %d != unbounded %d", pl.Checksum, unb.Checksum)
	}
	if unb.Time <= 0 || pl.Time <= 0 {
		t.Errorf("non-positive exchange times: unbounded %v, planned %v", unb.Time, pl.Time)
	}

	part := m["sort/partition"]
	if part.PeakBytes <= 0 || part.PeakBytes > figMemBudget {
		t.Errorf("partition sort peak %d outside (0, %d]", part.PeakBytes, figMemBudget)
	}
	if merge := m["sort/merge"]; merge.PeakBytes != 0 {
		t.Errorf("merge sort metered a staged peak (%d); it has no plan-staged sends", merge.PeakBytes)
	}
	rot := m["sort/rotational"]
	if rot.PeakBytes <= 0 || rot.PeakBytes >= unb.PeakBytes {
		t.Errorf("rotational peak %d not in (0, unbounded %d)", rot.PeakBytes, unb.PeakBytes)
	}
	for _, s := range []string{"merge", "rotational"} {
		if got := m["sort/"+s].Checksum; got != part.Checksum {
			t.Errorf("%s sort checksum %d != partition %d", s, got, part.Checksum)
		}
	}
}

// TestFigMemWorkersAgree pins the figure's determinism across executor
// run-slot counts: the rendered bytes must be identical fully serialized
// and at 8 slots, and name the figure and every strategy row.
func TestFigMemWorkersAgree(t *testing.T) {
	m := Juqueen()
	render := func(w int) string { return renderFigMem(m.Name, figMem([]Machine{m}, w, 0)[0]) }
	serial := render(1)
	if wide := render(8); wide != serial {
		t.Errorf("run-slot counts render different figures:\nworkers=1:\n%s\nworkers=8:\n%s", serial, wide)
	}
	for _, want := range []string{"Figure M", "exchange", "planned", "partition", "rotational"} {
		if !strings.Contains(serial, want) {
			t.Errorf("rendered table missing %q:\n%s", want, serial)
		}
	}
}

// TestFigMemObsCarriesMeter verifies the exported timeline carries the
// staging meter: gauge samples under the budget and a counter total.
func TestFigMemObsCarriesMeter(t *testing.T) {
	l := figMemTrace(0)
	peak, ok := l.GaugeMax(redist.MeterPeakBytes)
	if !ok {
		t.Fatalf("exported timeline has no %s gauge", redist.MeterPeakBytes)
	}
	if peak <= 0 || peak > figMemBudget {
		t.Errorf("exported peak gauge %v outside (0, %d]", peak, figMemBudget)
	}
	if l.Counter(redist.MeterPeakBytes) <= 0 {
		t.Errorf("exported timeline has no %s counter total", redist.MeterPeakBytes)
	}
}
