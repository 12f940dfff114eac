package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

func TestInitWithOptions(t *testing.T) {
	s := particle.SilicaMelt(120, 10, true, 5)
	vmpi.Run(vmpi.Config{Ranks: 2}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistRandom, 7)
		h, err := Init("p2nfft", c,
			WithBox(s.Box),
			WithAccuracy(1e-3),
			WithResort(true),
			WithMaxMove(-1),
		)
		if err != nil {
			t.Errorf("init with options: %v", err)
			return
		}
		defer h.Destroy()
		if !h.ResortEnabled() {
			t.Error("WithResort(true) not applied")
		}
		if err := h.Tune(l.N, l.ActivePos(), l.ActiveQ()); err != nil {
			t.Errorf("tune: %v", err)
			return
		}
		n := l.N
		if err := h.Run(&n, l.Cap, l.Pos, l.Q, l.Pot, l.Field); err != nil {
			t.Errorf("run: %v", err)
		}
	})
}

func TestInitOptionErrorsEagerly(t *testing.T) {
	vmpi.Run(vmpi.Config{Ranks: 1}, func(c *vmpi.Comm) {
		if _, err := Init("fmm", c, WithAccuracy(2)); !errors.Is(err, ErrBadAccuracy) {
			t.Errorf("WithAccuracy(2) error = %v, want ErrBadAccuracy", err)
		}
		box := particle.NewCubicBox(10, true)
		box.Base[0][1] = 1 // shear
		if _, err := Init("fmm", c, WithBox(box)); !errors.Is(err, ErrBadBox) {
			t.Errorf("WithBox(skewed) error = %v, want ErrBadBox", err)
		}
	})
}

func TestOptionsConfigureHandle(t *testing.T) {
	vmpi.Run(vmpi.Config{Ranks: 1}, func(c *vmpi.Comm) {
		box := particle.NewCubicBox(10, true)
		h, err := Init("fmm", c, WithBox(box), WithAccuracy(1e-4), WithResort(true))
		if err != nil {
			t.Fatalf("init: %v", err)
		}
		if h.accuracy != 1e-4 || !h.boxSet || !h.resortEnabled {
			t.Errorf("options not applied: accuracy %g, boxSet %v, resort %v",
				h.accuracy, h.boxSet, h.resortEnabled)
		}
	})
}

func TestWithResizePolicy(t *testing.T) {
	vmpi.Run(vmpi.Config{Ranks: 1}, func(c *vmpi.Comm) {
		pol := ResizePolicy{Every: 3, Sizes: []int{8, 2, 4}}
		h, err := Init("fmm", c, WithResizePolicy(pol))
		if err != nil {
			t.Fatalf("init: %v", err)
		}
		got := h.ResizePolicy()
		if !got.Enabled() || got.Every != 3 || len(got.Sizes) != 3 {
			t.Errorf("ResizePolicy() = %+v", got)
		}
		// Targets are consumed in order and the last one holds.
		for k, want := range []int{8, 2, 4, 4, 4} {
			if s := got.SizeAt(k); s != want {
				t.Errorf("SizeAt(%d) = %d, want %d", k, s, want)
			}
		}
		if (ResizePolicy{}).Enabled() {
			t.Error("zero policy must be disabled")
		}
		if _, err := Init("fmm", c, WithResizePolicy(ResizePolicy{Every: -1})); !errors.Is(err, ErrBadResizePolicy) {
			t.Errorf("negative interval error = %v, want ErrBadResizePolicy", err)
		}
		if _, err := Init("fmm", c, WithResizePolicy(ResizePolicy{Every: 2, Sizes: []int{4, 0}})); !errors.Is(err, ErrBadResizePolicy) {
			t.Errorf("size 0 error = %v, want ErrBadResizePolicy", err)
		}
	})
}

func TestWithRecorderTapsEvents(t *testing.T) {
	s := particle.SilicaMelt(120, 10, true, 5)
	st := vmpi.Run(vmpi.Config{Ranks: 2}, func(c *vmpi.Comm) {
		l := particle.Distribute(c, s, particle.DistRandom, 7)
		rec := obs.NewBuffer(c.WorldRank())
		h, err := Init("fmm", c, WithBox(s.Box), WithRecorder(rec))
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		defer h.Destroy()
		if err := h.Tune(l.N, l.ActivePos(), l.ActiveQ()); err != nil {
			t.Errorf("tune: %v", err)
			return
		}
		afterTune := rec.Len()
		n := l.N
		if err := h.Run(&n, l.Cap, l.Pos, l.Q, l.Pot, l.Field); err != nil {
			t.Errorf("run: %v", err)
			return
		}
		c.SetResult([2]int{afterTune, rec.Len()})
	})
	for r, v := range st.Values {
		counts := v.([2]int)
		if counts[1] <= counts[0] {
			t.Errorf("rank %d: recorder saw no Run events (tune=%d, after run=%d)",
				r, counts[0], counts[1])
		}
	}
}

// TestRecorderTapSeesCallEvents pins the tap against the kept list: on a
// world that keeps no event list, a WithRecorder tap receives — in order,
// wall stamps aside — exactly the events a traced world lists for the
// same Run call, minus the point-to-point messages, which stay gated on
// vmpi.Config.Trace.
func TestRecorderTapSeesCallEvents(t *testing.T) {
	s := particle.SilicaMelt(120, 10, true, 5)
	// callEvents returns each rank's events of one Run call: read back
	// from the kept list on the traced world, received by the tap on the
	// untraced one.
	callEvents := func(trace bool) []any {
		st := vmpi.Run(vmpi.Config{Ranks: 2, Trace: trace}, func(c *vmpi.Comm) {
			l := particle.Distribute(c, s, particle.DistRandom, 7)
			tap := obs.NewBuffer(c.WorldRank())
			opts := []Option{WithBox(s.Box), WithResort(true)}
			if !trace {
				opts = append(opts, WithRecorder(tap))
			}
			h, err := Init("p2nfft", c, opts...)
			if err != nil {
				t.Errorf("init: %v", err)
				return
			}
			defer h.Destroy()
			if err := h.Tune(l.N, l.ActivePos(), l.ActiveQ()); err != nil {
				t.Errorf("tune: %v", err)
				return
			}
			listMark, tapMark := c.Obs().Len(), tap.Len()
			n := l.N
			if err := h.Run(&n, l.Cap, l.Pos, l.Q, l.Pot, l.Field); err != nil {
				t.Errorf("run: %v", err)
				return
			}
			source := tap.Since(tapMark)
			if trace {
				source = c.Obs().Since(listMark)
			} else if kept := c.Obs().Len(); kept != 0 {
				t.Errorf("rank %d: untraced world kept %d events", c.Rank(), kept)
			}
			var evs []obs.Event
			for _, e := range source {
				if e.Kind != obs.KindSend && e.Kind != obs.KindArrive {
					e.WallNS = 0
					evs = append(evs, e)
				}
			}
			c.SetResult(evs)
		})
		return st.Values
	}
	listed, tapped := callEvents(true), callEvents(false)
	for r := range listed {
		want, got := listed[r].([]obs.Event), tapped[r].([]obs.Event)
		if len(want) == 0 {
			t.Fatalf("rank %d: the traced Run call listed no events", r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: tap received %d events, the traced list holds %d; first difference at %d",
				r, len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []obs.Event) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
