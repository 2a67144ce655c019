package core

import (
	"context"

	"github.com/scriptabs/goscript/internal/ids"
)

// Ctx is the view a role body has of its execution environment. The native
// runtime's RoleCtx implements it, and so do the host-language adapters in
// internal/trans, which execute the *same* script definitions on the CSP,
// Ada, and monitor substrates — the point of the paper's Section IV: the
// script construct can be added to each host language.
//
// Adapters may not support every operation (e.g. the CSP translation has no
// critical role sets, and Ada cannot select between entry calls); they
// return descriptive errors or documented defaults in those cases.
//
// Nested enrollment (EnrollIn) is deliberately not part of Ctx: it is a
// native-runtime extension (Section V). Bodies that need it can type-assert
// to *RoleCtx.
//
// A body's Ctx is valid while its body runs, and is not to be kept after: the
// native runtime's belongs to the enrollment record, which the enrolling
// goroutine's next Enroll may reuse once this one has returned.
type Ctx interface {
	// Context returns the enrolling process's context.
	Context() context.Context
	// Role returns the role being played.
	Role() ids.RoleRef
	// Index returns the family index, or ids.ScalarIndex for scalar roles.
	Index() int
	// PID returns the enrolled process's identity.
	PID() ids.PID
	// Performance returns the 1-based performance number (0 when the host
	// cannot know it).
	Performance() int

	// NumArgs, Arg and Args access the actual data parameters.
	NumArgs() int
	Arg(i int) any
	Args() []any
	// SetResult and Return write the result (out) parameters.
	SetResult(i int, v any)
	Return(values ...any)

	// Send, SendTag, Recv, RecvTag and RecvAny are the synchronous
	// inter-role communications.
	Send(to ids.RoleRef, v any) error
	SendTag(to ids.RoleRef, tag string, v any) error
	// SendAll offers v to every role in tos and blocks until all transfers
	// commit — the one-sender fan-out of the paper's broadcast figures. The
	// native runtime vectorizes it (the offers overlap instead of running as
	// len(tos) serial rendezvous); host adapters may fall back to a loop.
	SendAll(tos []ids.RoleRef, v any) error
	Recv(from ids.RoleRef) (any, error)
	RecvTag(from ids.RoleRef, tag string) (any, error)
	RecvAny() (ids.RoleRef, string, any, error)
	// Select commits exactly one enabled branch (guarded alternative). It
	// reads branches and neither changes nor keeps the list, so a body may
	// pass the same list on every trip round a loop — Select(alt...) — and
	// several performances may share one that none of them writes.
	Select(branches ...SelectBranch) (Selected, error)

	// Terminated is the paper's r.terminated predicate.
	Terminated(r ids.RoleRef) bool
	// Filled reports whether r is enrolled in this performance.
	Filled(r ids.RoleRef) bool
	// FamilySize returns the extent of a role family in this performance.
	FamilySize(name string) int
}

// SendEach is SendAll as a Send to each role of tos in turn, stopping at the
// first failure: the fan-out of a host whose substrate has no vectorized
// form, where a send is an entry call or a mailbox deposit.
func SendEach(c Ctx, tos []ids.RoleRef, v any) error {
	for _, to := range tos {
		if err := c.Send(to, v); err != nil {
			return err
		}
	}
	return nil
}

// ParamBag implements the data-parameter half of Ctx (Args in, Results
// out). Host adapters embed it.
type ParamBag struct {
	// In holds the actual data parameters.
	In []any
	// Out holds the result parameters written by the body.
	Out []any
}

// NumArgs returns the number of actual data parameters.
func (p *ParamBag) NumArgs() int { return len(p.In) }

// Arg returns the i-th actual data parameter, or nil when out of range.
func (p *ParamBag) Arg(i int) any {
	if i < 0 || i >= len(p.In) {
		return nil
	}
	return p.In[i]
}

// Args returns a copy of the actual data parameters.
func (p *ParamBag) Args() []any { return append([]any(nil), p.In...) }

// SetResult sets the i-th result parameter, growing the list as needed.
func (p *ParamBag) SetResult(i int, v any) {
	for len(p.Out) <= i {
		p.Out = append(p.Out, nil)
	}
	p.Out[i] = v
}

// Return replaces the whole result list.
func (p *ParamBag) Return(values ...any) { p.Out = values }
