package core

import (
	"fmt"

	"repro/internal/particle"
)

// Option configures an FCS handle at Init. Options are applied in order
// and validated eagerly: Init fails with the first option error instead of
// deferring misconfiguration to Tune/Run.
type Option func(*FCS) error

// WithBox sets the particle system box (periodicity and shape). The box
// must be orthorhombic.
func WithBox(box particle.Box) Option {
	return func(h *FCS) error {
		if !box.Orthorhombic() {
			return fmt.Errorf("core: %w", ErrBadBox)
		}
		h.box = box
		h.boxSet = true
		h.solver = nil
		h.tuned = false
		return nil
	}
}

// WithAccuracy sets the requested relative accuracy for tuning. The option
// validates eagerly: Init fails with ErrBadAccuracy outside (0, 1).
func WithAccuracy(eps float64) Option {
	return func(h *FCS) error {
		if eps <= 0 || eps >= 1 {
			return fmt.Errorf("core: %w: got %g", ErrBadAccuracy, eps)
		}
		h.accuracy = eps
		h.solver = nil
		h.tuned = false
		return nil
	}
}

// WithResort selects redistribution method B (true): solver runs may
// return the changed particle order and distribution together with resort
// indices. False (the default) is method A.
func WithResort(on bool) Option {
	return func(h *FCS) error {
		h.resortEnabled = on
		return nil
	}
}
