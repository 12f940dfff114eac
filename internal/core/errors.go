package core

import "errors"

// Typed sentinel errors — the ScaFaCoS-style result-code surface. Every
// error returned by the handle wraps one of these, so applications can
// switch on error classes with errors.Is while the message keeps the
// human-readable details.
var (
	// ErrUnknownMethod: Init was given a solver method name outside
	// Methods().
	ErrUnknownMethod = errors.New("unknown solver method")
	// ErrNotConfigured: Tune or Run was called before the box was set
	// (WithBox).
	ErrNotConfigured = errors.New("solver not configured")
	// ErrBadBox: the particle system box is not orthorhombic.
	ErrBadBox = errors.New("box must be orthorhombic")
	// ErrBadAccuracy: the requested relative accuracy is outside (0, 1).
	ErrBadAccuracy = errors.New("accuracy must be in (0, 1)")
	// ErrCapacityTooSmall: the local particle count (input or resorted
	// output) exceeds the declared array capacity.
	ErrCapacityTooSmall = errors.New("capacity too small")
	// ErrBadLength: an array argument is shorter than its contract
	// requires.
	ErrBadLength = errors.New("bad array length")
	// ErrResortUnavailable: a resort function was called although the
	// previous Run restored the original order (method A or capacity
	// fallback).
	ErrResortUnavailable = errors.New("no resort available")
	// ErrBadStride: a resort stride is not positive.
	ErrBadStride = errors.New("bad resort stride")
)
