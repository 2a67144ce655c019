// Package script is a Go implementation of the communication abstraction
// proposed by Nissim Francez and Brent Hailpern in "Script: A Communication
// Abstraction Mechanism" (PODC 1983).
//
// A script localizes a *pattern of communication* among a set of formal
// processes called roles. Actual processes enroll into roles — supplying
// data parameters and, optionally, naming their partners — and a collective
// activation of the roles is a performance. The script hides how the
// pattern is implemented: a broadcast script may internally be a star, a
// tree, or a pipeline, without the enrolling processes changing.
//
// This package is the supported public API; it re-exports the native
// runtime from the repository's internal packages. The paper's host-
// language embeddings (CSP, Ada, monitors) and its translation schemes live
// in internal/csp, internal/ada, internal/monitor and internal/trans, and
// are exercised by the example programs and the experiment harness.
//
// # Quick start
//
//	def := script.New("broadcast").
//		Role("sender", func(rc script.Ctx) error {
//			for i := 1; i <= 3; i++ {
//				if err := rc.Send(script.Member("recipient", i), rc.Arg(0)); err != nil {
//					return err
//				}
//			}
//			return nil
//		}).
//		Family("recipient", 3, func(rc script.Ctx) error {
//			v, err := rc.Recv(script.Role("sender"))
//			rc.SetResult(0, v)
//			return err
//		}).
//		MustBuild()
//
//	in := script.NewInstance(def)
//	defer in.Close()
//	// Each participant calls in.Enroll from its own goroutine.
package script

import (
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/trace"
)

// Core types, re-exported.
type (
	// Definition is an immutable script definition.
	Definition = core.Definition
	// Builder accumulates a script definition; see New.
	Builder = core.Builder
	// Instance is one runtime instance of a definition.
	Instance = core.Instance
	// Enrollment is a request to play a role.
	Enrollment = core.Enrollment
	// Result reports a completed enrollment.
	Result = core.Result
	// Offered is an offer placed with Offer, without waiting for it.
	Offered = core.Offered
	// Handoff is how the holder of an Offered learns what became of it.
	Handoff = core.Handoff
	// Ctx is the role body's view of its performance.
	Ctx = core.Ctx
	// RoleCtx is the native runtime's Ctx, with the nested-enrollment
	// extension (EnrollIn).
	RoleCtx = core.RoleCtx
	// RoleBody is the program text of one role.
	RoleBody = core.RoleBody
	// SelectBranch is one alternative of a guarded Select.
	SelectBranch = core.SelectBranch
	// Selected reports the outcome of a Select.
	Selected = core.Selected
	// Option configures an Instance.
	Option = core.Option
	// RoleError wraps an error from a role body.
	RoleError = core.RoleError
	// AbortError reports a performance aborted by the runtime (deadline
	// exceeded); it wraps ErrPerformanceAborted and names the culprit role.
	AbortError = core.AbortError
	// OverloadError reports an enrollment or connection shed by a remote
	// host's admission control; it wraps ErrOverloaded and may carry the
	// host's RetryAfter backoff hint.
	OverloadError = core.OverloadError
	// FaultInjector injects controlled latency, dropped wakeups and spurious
	// cancellations for robustness testing; see WithFaultInjection.
	FaultInjector = core.FaultInjector
	// DefinitionError reports an invalid definition.
	DefinitionError = core.DefinitionError
	// Initiation selects when a performance begins.
	Initiation = core.Initiation
	// Termination selects when enrolled processes are released.
	Termination = core.Termination
	// Tracer observes runtime events.
	Tracer = trace.Tracer
	// TraceLog is an in-memory tracer.
	TraceLog = trace.Log
	// AsyncTracer decouples trace recording from the scheduler's critical
	// section via a bounded queue; see NewAsyncTracer.
	AsyncTracer = trace.Async
	// Sampler decides per performance, at initiation, whether to trace it;
	// see WithSampler.
	Sampler = trace.Sampler
	// TraceID identifies one sampled performance's cross-process timeline.
	TraceID = trace.TraceID

	// PID identifies an enrolling process.
	PID = ids.PID
	// RoleRef names a role or family member.
	RoleRef = ids.RoleRef
	// PIDSet is a set of process identities (partner constraints).
	PIDSet = ids.PIDSet
	// Fairness selects contention resolution.
	Fairness = match.Fairness
)

// Policy constants.
const (
	// DelayedInitiation starts a performance only when a critical role set
	// is jointly enrolled.
	DelayedInitiation = core.DelayedInitiation
	// ImmediateInitiation starts a performance at the first enrollment.
	ImmediateInitiation = core.ImmediateInitiation
	// DelayedTermination frees all processes together.
	DelayedTermination = core.DelayedTermination
	// ImmediateTermination frees each process as its role completes.
	ImmediateTermination = core.ImmediateTermination

	// FIFO serves contending enrollments in arrival order (Ada-style).
	FIFO = match.FIFO
	// Arbitrary resolves contention by seeded random choice (CSP-style).
	Arbitrary = match.Arbitrary
)

// Sentinel errors, re-exported.
var (
	// ErrRoleAbsent is the paper's distinguished value for communication
	// with a role left unfilled by the committed critical role set.
	ErrRoleAbsent = core.ErrRoleAbsent
	// ErrRoleFinished reports communication with a role whose body has
	// returned.
	ErrRoleFinished = core.ErrRoleFinished
	// ErrUnknownRole reports a reference to an undeclared role.
	ErrUnknownRole = core.ErrUnknownRole
	// ErrClosed reports use of a closed instance.
	ErrClosed = core.ErrClosed
	// ErrDraining reports an offer rejected because the instance or pool is
	// draining (see Instance.Drain and Pool.Drain).
	ErrDraining = core.ErrDraining
	// ErrPerformanceAborted reports a performance aborted by the runtime;
	// enrollers receive it wrapped in an *AbortError naming the culprit.
	ErrPerformanceAborted = core.ErrPerformanceAborted
	// ErrOverloaded reports work shed by a remote host's admission control
	// before it was admitted; retrying after the *OverloadError's
	// RetryAfter hint is always safe.
	ErrOverloaded = core.ErrOverloaded
	// ErrNoBranches reports a Select with no enabled branches.
	ErrNoBranches = core.ErrNoBranches
)

// New starts the definition of a script with the given name.
func New(name string) *Builder { return core.NewScript(name) }

// NewInstance creates a runtime instance of def.
func NewInstance(def Definition, opts ...Option) *Instance {
	return core.NewInstance(def, opts...)
}

// WithTracer attaches a tracer to an instance.
func WithTracer(t Tracer) Option { return core.WithTracer(t) }

// NewAsyncTracer wraps sink in a bounded queue drained by a dedicated
// goroutine, so Record never blocks the scheduler: events are dropped (and
// counted) rather than awaited when the queue is full. size is the queue's
// capacity in events; pass 0 for the default. Call Flush to wait for
// delivery and Close when the instance is done.
func NewAsyncTracer(sink Tracer, size int) *AsyncTracer {
	if size <= 0 {
		size = trace.DefaultAsyncSize
	}
	return trace.NewAsync(sink, size)
}

// WithSampler installs a trace sampler: each performance is traced (and
// assigned a TraceID, reported in Result.TraceID) only when the sampler
// says so at initiation; everything else records nothing. Combine with
// WithTracer — typically an AsyncTracer — for production tracing at a
// sampled rate.
func WithSampler(s Sampler) Option { return core.WithSampler(s) }

// NewProbabilitySampler samples each performance independently with the
// given probability (0..1). The decision sequence is deterministic for a
// given seed.
func NewProbabilitySampler(fraction float64, seed uint64) Sampler {
	return trace.NewProbabilitySampler(fraction, seed)
}

// NewRateSampler samples up to perSec performances per second (token
// bucket with the given burst). IDs are deterministic for a given seed.
func NewRateSampler(perSec float64, burst int, seed uint64) Sampler {
	return trace.NewRateSampler(perSec, burst, seed)
}

// WithFairness selects the instance's contention policy.
func WithFairness(f Fairness, seed int64) Option { return core.WithFairness(f, seed) }

// WithPerformanceDeadline bounds every performance of the instance: a
// performance that has not completed d after it starts is aborted, its
// blocked co-performers unwinding with an *AbortError that names the
// culprit role. d <= 0 disables the bound. Individual enrollments can
// tighten (never loosen) the bound via Enrollment.Deadline.
func WithPerformanceDeadline(d time.Duration) Option {
	return core.WithPerformanceDeadline(d)
}

// WithFaultInjection attaches a fault injector to an instance; intended for
// robustness tests (see internal/chaos for the seeded implementation).
func WithFaultInjection(fi FaultInjector) Option { return core.WithFaultInjection(fi) }

// Role returns a reference to the scalar role named name.
func Role(name string) RoleRef { return ids.Role(name) }

// Member returns a reference to member i (1-based) of a role family.
func Member(name string, i int) RoleRef { return ids.Member(name, i) }

// Partners builds a partner-constraint set from process identities
// (the paper's "either process A or process B" form when given several).
func Partners(pids ...PID) PIDSet { return ids.NewPIDSet(pids...) }

// Select branch constructors, re-exported.
var (
	// SendTo builds an enabled untagged send branch.
	SendTo = core.SendTo
	// SendTagTo builds an enabled tagged send branch.
	SendTagTo = core.SendTagTo
	// RecvFrom builds an enabled untagged receive branch.
	RecvFrom = core.RecvFrom
	// RecvTagFrom builds an enabled tagged receive branch.
	RecvTagFrom = core.RecvTagFrom
	// RecvFromAnyone builds an enabled receive branch accepting any sender.
	RecvFromAnyone = core.RecvFromAnyone
)
