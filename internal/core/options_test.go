package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

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

// TestWithMemoryBudget: a small staging budget (vmpi.Config's
// MaxExchangeBytes), which splits every redistribution into many rounds,
// changes no bit of the potentials and fields, for the FMM (method A) and
// P2NFFT (method B).
func TestWithMemoryBudget(t *testing.T) {
	const budget = 512
	s := particle.SilicaMelt(400, 10, true, 3)
	fields := func(method string, resort bool, maxBytes int64) ([]any, int64) {
		st := vmpi.Run(vmpi.Config{Ranks: 8, MaxExchangeBytes: maxBytes}, func(c *vmpi.Comm) {
			l := particle.Distribute(c, s, particle.DistRandom, 7)
			h, err := Init(method, c, WithBox(s.Box), WithResort(resort))
			if err != nil {
				t.Errorf("init: %v", err)
				return
			}
			defer h.Destroy()
			if err := h.Tune(l.N, l.ActivePos(), l.ActiveQ()); err != nil {
				t.Errorf("tune: %v", err)
				return
			}
			n := l.N
			if err := h.Run(&n, l.Cap, l.Pos, l.Q, l.Pot, l.Field); err != nil {
				t.Errorf("run: %v", err)
				return
			}
			if h.ResortAvailable() != resort {
				t.Errorf("%s rank %d: ResortAvailable = %v, want %v", method, c.Rank(), h.ResortAvailable(), resort)
			}
			bits := make([]uint64, 0, 4*n)
			for _, v := range append(l.Pot[:n:n], l.Field[:3*n]...) {
				bits = append(bits, math.Float64bits(v))
			}
			c.SetResult(bits)
		})
		return st.Values, st.TotalMessages()
	}
	for _, tc := range []struct {
		method string
		resort bool
	}{{"fmm", false}, {"p2nfft", true}} {
		want, free := fields(tc.method, tc.resort, 0)
		got, bounded := fields(tc.method, tc.resort, budget)
		if bounded == free {
			t.Errorf("%s: the budget left the message count at %d: no exchange ran in rounds", tc.method, free)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s resort=%v: potentials and fields under a %d-byte budget differ from the unbudgeted run",
				tc.method, tc.resort, budget)
		}
	}
}
