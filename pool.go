package script

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool multiplexes enrollments across N instances of one script definition —
// the paper's sanctioned route to concurrent performances ("multiple
// instances add no power but avoid re-coding the script", Section II): a
// single Instance serializes its performances by the successive-activations
// rule, so independent casts that could run side by side queue behind each
// other. A Pool gives each cast its own instance and so its own lock,
// fabric, and performance pipeline.
//
// Dispatch is least-pending with a round-robin tie-break: Enroll reads each
// instance's atomic load counter (enrollments in flight) and picks the least
// loaded, scanning from a rotating start so ties spread evenly. Because all
// roles of one performance must enroll in the *same* instance, Pool.Enroll
// suits workloads where an enrollment completes a cast on whichever
// instance it lands on: single-role scripts, open casts under immediate
// initiation, or client roles against per-instance resident partners (e.g.
// one set of lock-manager processes enrolled per instance via Instance(i)).
// Casts that must co-perform should enroll through EnrollBloc, which routes
// the whole bloc to one instance, or pin an instance with Instance(i).
type Pool struct {
	def       Definition
	instances []*Instance
	cursor    atomic.Uint64
	// closed is the fast-fail flag for Enroll. It is set only AFTER every
	// instance has been closed, so a true reading guarantees no instance
	// can admit an offer; a false reading merely forwards to an instance's
	// own (authoritative) closed check.
	closed    atomic.Bool
	draining  atomic.Bool
	closeOnce sync.Once
}

// NewPool creates a pool of n instances of def, each configured with opts.
// n must be at least 1.
func NewPool(def Definition, n int, opts ...Option) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("script: pool size %d < 1", n))
	}
	p := &Pool{def: def, instances: make([]*Instance, n)}
	for i := range p.instances {
		p.instances[i] = NewInstance(def, opts...)
	}
	return p
}

// Definition returns the pool's script definition.
func (p *Pool) Definition() Definition { return p.def }

// Size returns the number of instances in the pool.
func (p *Pool) Size() int { return len(p.instances) }

// Instance returns the i-th instance (0-based), for workloads that pin
// roles to a specific instance (resident servers, co-performing casts).
func (p *Pool) Instance(i int) *Instance { return p.instances[i] }

// Performances returns the total number of performances started across the
// pool.
func (p *Pool) Performances() int {
	total := 0
	for _, in := range p.instances {
		total += in.Performances()
	}
	return total
}

// PendingEnrollments returns the total number of pending offers across the
// pool.
func (p *Pool) PendingEnrollments() int {
	total := 0
	for _, in := range p.instances {
		total += in.PendingEnrollments()
	}
	return total
}

// PendingOffers returns the total number of pending offers across the pool,
// read from each instance's atomic counter — the contention-free variant of
// PendingEnrollments that admission control (the remote host's per-target
// pending-offer cap) consults on every offer.
func (p *Pool) PendingOffers() int {
	total := 0
	for _, in := range p.instances {
		total += in.PendingOffers()
	}
	return total
}

// Closed reports whether the pool has fully closed: every instance closed
// and the pool-level fast-fail flag accepted.
func (p *Pool) Closed() bool { return p.closed.Load() }

// Draining reports whether Drain has been called (the pool no longer admits
// offers).
func (p *Pool) Draining() bool { return p.draining.Load() }

// pick selects the dispatch target: the least-loaded instance, scanning
// from a rotating start so equally-loaded instances are used round-robin.
func (p *Pool) pick() *Instance {
	n := uint64(len(p.instances))
	start := p.cursor.Add(1)
	best := p.instances[start%n]
	bestLoad := best.Load()
	for i := uint64(1); i < n && bestLoad > 0; i++ {
		in := p.instances[(start+i)%n]
		if l := in.Load(); l < bestLoad {
			best, bestLoad = in, l
		}
	}
	return best
}

// Enroll dispatches e to the least-loaded instance and enrolls there,
// blocking like Instance.Enroll. The chosen instance's performance number
// is reported in the Result.
func (p *Pool) Enroll(ctx context.Context, e Enrollment) (Result, error) {
	if p.draining.Load() {
		return Result{}, ErrDraining
	}
	if p.closed.Load() {
		return Result{}, ErrClosed
	}
	return p.pick().Enroll(ctx, e)
}

// Offer dispatches e to the least-loaded instance and places the offer
// there, returning at once like Instance.Offer; h hears from that instance.
func (p *Pool) Offer(ctx context.Context, e Enrollment, h Handoff) (Offered, error) {
	if p.draining.Load() {
		return Offered{}, ErrDraining
	}
	if p.closed.Load() {
		return Offered{}, ErrClosed
	}
	return p.pick().Offer(ctx, e, h)
}

// EnrollBloc dispatches a joint enrollment to the least-loaded instance, so
// the whole bloc lands in one performance there (see Instance.EnrollBloc).
func (p *Pool) EnrollBloc(ctx context.Context, members []Enrollment) ([]Result, error) {
	if p.draining.Load() {
		return nil, ErrDraining
	}
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p.pick().EnrollBloc(ctx, members)
}

// Close aborts every instance in the pool. The pool-level closed flag is
// accepted only after every instance has closed; until then a racing Enroll
// may still dispatch, and the instance's own closed check — which is
// authoritative — rejects it. (Accepting the flag first would let the pool
// report ErrClosed while an instance still admits offers and starts a fresh
// performance mid-shutdown.) Close is idempotent. Prefer Drain for a
// shutdown that lets in-flight performances complete.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		for _, in := range p.instances {
			in.Close()
		}
		p.closed.Store(true)
	})
}

// Drain shuts the pool down gracefully: new offers fail with ErrDraining
// immediately, every instance drains concurrently (pending offers released,
// in-flight performances run to completion), and Drain returns nil once all
// instances have closed. If ctx ends first, Drain returns the joined
// errors; instances keep draining and a later Drain or Close finishes the
// job. See Instance.Drain for the per-instance semantics.
func (p *Pool) Drain(ctx context.Context) error {
	p.draining.Store(true)
	errs := make([]error, len(p.instances))
	var wg sync.WaitGroup
	for i, in := range p.instances {
		wg.Add(1)
		go func(i int, in *Instance) {
			defer wg.Done()
			errs[i] = in.Drain(ctx)
		}(i, in)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	p.closed.Store(true)
	return nil
}
