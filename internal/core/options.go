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

// ResizePolicy schedules elastic world resizes for a driver loop: every
// Every time steps the world is resized to the next entry of Sizes (the
// driver — mdsim-based benchmarks, tests — performs the resize with
// elastic.Resize and moves its handles over with Rescale). The library
// itself never resizes behind the application's back; the policy is a
// contract between the application loop and its configuration.
type ResizePolicy struct {
	// Every is the number of completed steps between resizes; 0 disables
	// resizing.
	Every int
	// Sizes are the successive world-size targets, consumed in order; after
	// the last one the world stays at its final size.
	Sizes []int
}

// Enabled reports whether the policy schedules any resize.
func (p ResizePolicy) Enabled() bool { return p.Every > 0 && len(p.Sizes) > 0 }

// SizeAt returns the world-size target of the k-th resize (0-based),
// holding the final size once the schedule is exhausted.
func (p ResizePolicy) SizeAt(k int) int {
	if k >= len(p.Sizes) {
		return p.Sizes[len(p.Sizes)-1]
	}
	return p.Sizes[k]
}

// WithResizePolicy attaches a resize schedule to the handle. Validated
// eagerly: Every must be non-negative and every size at least 1.
func WithResizePolicy(p ResizePolicy) Option {
	return func(h *FCS) error {
		if p.Every < 0 {
			return fmt.Errorf("core: %w: resize interval %d must be non-negative", ErrBadResizePolicy, p.Every)
		}
		for _, s := range p.Sizes {
			if s < 1 {
				return fmt.Errorf("core: %w: world size %d must be at least 1", ErrBadResizePolicy, s)
			}
		}
		h.resizePolicy = p
		return nil
	}
}

// WithMemoryBudget caps the per-rank bytes any redistribution may stage
// for sending at once: solver exchanges, resorts, and block remaps on the
// handle's communicator run through the memory-bounded redistribution
// planner (internal/redist) in rounds that each stay within the budget.
// 0 (the default) leaves exchanges unbounded. Validated eagerly: Init
// fails with ErrBadMemoryBudget for negative bytes. Applied to the
// communicator at Init and re-applied on Rescale; every rank must
// configure the same budget (the planner's round schedule is collective).
func WithMemoryBudget(bytes int64) Option {
	return func(h *FCS) error {
		if bytes < 0 {
			return fmt.Errorf("core: %w: %d bytes", ErrBadMemoryBudget, bytes)
		}
		h.memoryBudget = bytes
		h.memoryBudgetSet = true
		return nil
	}
}
