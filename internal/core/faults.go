package core

import (
	"context"
	"time"
)

// FaultInjector injects controlled faults into the runtime's hot paths for
// robustness testing. The runtime consults it at two points:
//
//   - before every fabric communication a role body issues (OpDelay:
//     latency; CancelAfter: a spurious cancellation of a blocking
//     operation's context — a posted op has none, and takes only OpDelay);
//   - when the scheduler delivers a targeted wakeup to an assigned enroller
//     (WakeDelay: the inline wakeup token is dropped and redelivered late,
//     modelling a lost-then-recovered signal).
//
// Implementations must be safe for concurrent use; internal/chaos provides
// the standard seeded implementation. A fault injector perturbs timing and
// signalling only — it must not be able to violate the runtime's semantics,
// which is exactly what the chaos soak tests assert.
type FaultInjector interface {
	// OpDelay returns a latency to impose before a communication operation
	// (0 = none). It runs on the role body's goroutine, outside any lock.
	OpDelay() time.Duration
	// WakeDelay returns how long to withhold a scheduler wakeup
	// (0 = deliver inline). The token is redelivered by a timer, so a
	// positive delay models a dropped wakeup that a recovery path must
	// tolerate, never a permanently lost one.
	WakeDelay() time.Duration
	// CancelAfter returns a delay after which the current blocking
	// communication's context is spuriously cancelled (0 = leave the context
	// alone). It is not consulted for a posted op, which has no context.
	CancelAfter() time.Duration
}

// WithFaultInjection attaches a fault injector to an instance. Intended for
// tests; a nil injector disables injection.
func WithFaultInjection(fi FaultInjector) Option {
	return func(in *Instance) { in.faults = fi }
}

// opContext applies the instance's fault injector to one communication
// operation: it imposes the injected latency and, when a spurious
// cancellation is drawn, derives a context that cancels after the drawn
// delay. The returned cancel func does nothing when the context is
// unchanged.
func (in *Instance) opContext(ctx context.Context) (context.Context, context.CancelFunc) {
	fi := in.faults
	if fi == nil {
		return ctx, noCancel
	}
	if d := fi.OpDelay(); d > 0 {
		time.Sleep(d)
	}
	if d := fi.CancelAfter(); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, noCancel
}

func noCancel() {}
