package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/rendezvous"
	"github.com/scriptabs/goscript/internal/trace"
)

// RoleCtx is the view a role body has of its performance: its identity and
// data parameters, synchronous communication with the other roles, the
// paper's Terminated predicate, and enrollment into other scripts (nested
// enrollment, Section V).
//
// A RoleCtx is used by one goroutine at a time — the enroller's, or in turn
// the remote host's goroutines that post the role's operations and complete
// them (see Post) — and must not be retained after the body returns: it is
// part of the enrollment record, which the enroller's next Enroll may reuse
// once this one has returned.
var _ Ctx = (*RoleCtx)(nil)

type RoleCtx struct {
	// st is the enrollment record this context is part of. The role and the
	// process (st.offer), the enroller's context, the arguments and the
	// performance are read from it: all are written before the enroller is
	// woken and not again while the enrollment lasts (a recycled record is
	// filled anew for the enroller's next Enroll).
	st   *enrollState
	inst *Instance
	id   rendezvous.ID // the role's endpoint in the performance's fabric
	// results are the role's out parameters: a closed role's first two in
	// its pair of the performance's result array (see performance.resultsOf),
	// which the enroller's Result.Values may alias after Enroll returns.
	results []any
	// peerName and peerBase remember the last role name an operation
	// resolved: peerBase is 1 + the slot of that name's scalar or member 1,
	// 0 when the name has no slot (see resolve).
	peerName string
	peerBase int
}

// Context returns the enrolling process's context; communications abort
// when it is cancelled.
func (rc *RoleCtx) Context() context.Context { return rc.st.ctx }

// Role returns the role this body is playing.
func (rc *RoleCtx) Role() ids.RoleRef { return rc.st.offer.Role }

// Index returns the family index of the role, or ids.ScalarIndex for a
// scalar role.
func (rc *RoleCtx) Index() int { return rc.st.offer.Role.Index }

// PID returns the identity of the enrolled process.
func (rc *RoleCtx) PID() ids.PID { return rc.st.offer.PID }

// Performance returns the 1-based performance number.
func (rc *RoleCtx) Performance() int { return rc.st.perf.number }

// NumArgs returns the number of actual data parameters supplied at
// enrollment.
func (rc *RoleCtx) NumArgs() int { return len(rc.st.args) }

// Arg returns the i-th actual data parameter, or nil when out of range.
func (rc *RoleCtx) Arg(i int) any {
	if i < 0 || i >= len(rc.st.args) {
		return nil
	}
	return rc.st.args[i]
}

// Args returns a copy of the actual data parameters.
func (rc *RoleCtx) Args() []any { return append([]any(nil), rc.st.args...) }

// SetResult sets the i-th result (out) parameter, growing the result list
// as needed. Results are delivered to the enrolling process when it is
// released.
func (rc *RoleCtx) SetResult(i int, v any) {
	if rc.results == nil {
		rc.results = rc.st.perf.resultsOf(int(rc.st.slot), len(rc.inst.roles))
	}
	for len(rc.results) <= i {
		rc.results = append(rc.results, nil)
	}
	rc.results[i] = v
}

// Return replaces the whole result list.
func (rc *RoleCtx) Return(values ...any) { rc.results = values }

// Send transfers v synchronously to role `to` (untagged).
func (rc *RoleCtx) Send(to ids.RoleRef, v any) error { return rc.SendTag(to, "", v) }

// SendTag transfers v synchronously to role `to` under a message tag.
// Tags distinguish message kinds the way CSP constructors do.
func (rc *RoleCtx) SendTag(to ids.RoleRef, tag string, v any) error {
	slot, id, err := rc.peer(to)
	if err != nil {
		return err
	}
	ctx, cancel := rc.inst.opContext(rc.st.ctx)
	defer cancel()
	if err := rc.st.perf.fabric.SendID(ctx, rc.id, id, rendezvous.Tag(tag), v); err != nil {
		return rc.mapCommErr(to, slot, err)
	}
	rc.record(trace.KindSend, to, tag)
	return nil
}

// record records one communication of this role with peer in its
// performance's trace.
func (rc *RoleCtx) record(kind trace.Kind, peer ids.RoleRef, detail string) {
	st := rc.st
	rc.inst.recordPerf(st.perf, trace.Event{
		Kind: kind, Script: rc.inst.def.name, Performance: st.perf.number,
		Role: st.offer.Role, Peer: peer, PID: st.offer.PID, Detail: detail,
	})
}

// SendAll offers v to every role in tos (untagged) and blocks until all
// transfers commit. The offers are issued as one vectorized scatter: they
// overlap in the fabric instead of running as len(tos) serial rendezvous,
// so a star broadcast costs one fan-out rather than n round trips. On error,
// the scatter still drives every offer to an outcome (commit or failure)
// before returning the first failure; recipients that committed did receive
// the value.
func (rc *RoleCtx) SendAll(tos []ids.RoleRef, v any) error {
	p := Post{rc: rc}
	targets, err := p.sendAll(tos)
	if err != nil || len(tos) == 0 {
		return err
	}
	ctx, cancel := rc.inst.opContext(rc.st.ctx)
	defer cancel()
	_, err = p.outcome(rendezvous.IDOutcome{}, rc.st.perf.fabric.ScatterID(ctx, rc.id, "", targets, []any{v}))
	return err
}

// Recv receives the next untagged message from role `from`.
func (rc *RoleCtx) Recv(from ids.RoleRef) (any, error) { return rc.RecvTag(from, "") }

// RecvTag receives the next message with the given tag from role `from`.
func (rc *RoleCtx) RecvTag(from ids.RoleRef, tag string) (any, error) {
	slot, id, err := rc.peer(from)
	if err != nil {
		return nil, err
	}
	ctx, cancel := rc.inst.opContext(rc.st.ctx)
	defer cancel()
	v, err := rc.st.perf.fabric.RecvID(ctx, rc.id, id, rendezvous.Tag(tag))
	if err != nil {
		return nil, rc.mapCommErr(from, slot, err)
	}
	rc.record(trace.KindRecv, from, tag)
	return v, nil
}

// RecvAny receives the next message addressed to this role from any role,
// with any tag. It returns the sending role, the tag, and the value. This
// is the anonymous reception the paper attributes to Ada's accept (and to
// Francez's extension of CSP).
func (rc *RoleCtx) RecvAny() (ids.RoleRef, string, any, error) {
	p := Post{rc: rc, kind: postRecvAny}
	ctx, cancel := rc.inst.opContext(rc.st.ctx)
	defer cancel()
	sel, err := p.outcome(rc.st.perf.fabric.DoID(ctx, rc.id, anyMessage))
	return sel.Peer, sel.Tag, sel.Val, err
}

// anyMessage is RecvAny's alternative; the fabric only reads it.
var anyMessage = []rendezvous.IDBranch{{Dir: rendezvous.DirRecv, AnyPeer: true, AnyTag: true}}

// roleAt names the role that plays at endpoint id of this performance's
// fabric — one that communicated, so one in the cast.
func (rc *RoleCtx) roleAt(id rendezvous.ID) ids.RoleRef {
	if int(id) < len(rc.inst.roles) {
		return rc.inst.roles[id]
	}
	rc.inst.mu.Lock()
	defer rc.inst.mu.Unlock()
	r, _ := rc.st.perf.openRole(id)
	return r
}

// SelectBranch is one alternative of a guarded Select — the script-level
// analogue of CSP's alternative command with input/output guards. A body
// whose alternative is the same on every trip round its loop builds the
// branch list once and passes it as Select(list...): the call then allocates
// nothing. The three flags share the last word, which keeps a branch at 64
// bytes for the lists that do have to be built per call.
type SelectBranch struct {
	peer    ids.RoleRef
	tag     string
	val     any
	send    bool // an output guard; otherwise an input guard
	anyPeer bool
	guard   bool
}

// SendTo builds an enabled send branch (untagged).
func SendTo(to ids.RoleRef, v any) SelectBranch {
	return SelectBranch{send: true, peer: to, val: v, guard: true}
}

// SendTagTo builds an enabled tagged send branch.
func SendTagTo(to ids.RoleRef, tag string, v any) SelectBranch {
	return SelectBranch{send: true, peer: to, tag: tag, val: v, guard: true}
}

// RecvFrom builds an enabled receive branch (untagged).
func RecvFrom(from ids.RoleRef) SelectBranch {
	return SelectBranch{peer: from, guard: true}
}

// RecvTagFrom builds an enabled tagged receive branch.
func RecvTagFrom(from ids.RoleRef, tag string) SelectBranch {
	return SelectBranch{peer: from, tag: tag, guard: true}
}

// RecvFromAnyone builds an enabled receive branch accepting any sender with
// the given tag ("" accepts only the untagged kind).
func RecvFromAnyone(tag string) SelectBranch {
	return SelectBranch{anyPeer: true, tag: tag, guard: true}
}

// When returns the branch with its boolean guard set: a false guard
// disables the branch, as in guarded commands.
func (b SelectBranch) When(cond bool) SelectBranch {
	b.guard = cond
	return b
}

// IsSend reports whether the branch is a send (output guard).
func (b SelectBranch) IsSend() bool { return b.send }

// BranchPeer returns the branch's counterpart role, and whether the branch
// accepts any peer instead.
func (b SelectBranch) BranchPeer() (peer ids.RoleRef, anyPeer bool) {
	return b.peer, b.anyPeer
}

// BranchTag returns the branch's message tag.
func (b SelectBranch) BranchTag() string { return b.tag }

// BranchValue returns the value a send branch offers (nil for receives).
func (b SelectBranch) BranchValue() any { return b.val }

// Enabled reports the boolean guard.
func (b SelectBranch) Enabled() bool { return b.guard }

// Accepts reports whether the branch is an enabled receive that takes a
// message from role from under tag: the match a host makes itself when its
// messages arrive in a mailbox rather than through a guarded alternative.
func (b SelectBranch) Accepts(from ids.RoleRef, tag string) bool {
	return b.guard && !b.send && (b.anyPeer || b.peer == from) && b.tag == tag
}

// Selected reports the outcome of a Select.
type Selected struct {
	// Index is the position of the committed branch in the Select call.
	Index int
	// Peer is the counterpart role.
	Peer ids.RoleRef
	// Tag is the message tag.
	Tag string
	// Val is the received value for a receive branch, nil for a send.
	Val any
}

// Select blocks until exactly one enabled branch commits. Branches whose
// boolean guard is false are ignored; branches naming an absent role are
// disabled (the paper's distinguished-value rule applied to guards). If no
// branch remains, Select fails with ErrNoBranches (all guards false) or
// ErrRoleAbsent / ErrRoleFinished (all communication partners gone) —
// CSP's rule that a repetitive command exits when all guards fail.
func (rc *RoleCtx) Select(branches ...SelectBranch) (Selected, error) {
	// The alternative handed to the fabric, four inline, as many as the
	// fabric's slot holds.
	var fabBuf [4]rendezvous.IDBranch
	p := Post{rc: rc}
	fab, err := p.selectOn(branches, fabBuf[:0])
	if err != nil {
		return Selected{}, err
	}
	ctx, cancel := rc.inst.opContext(rc.st.ctx)
	defer cancel()
	return p.outcome(rc.st.perf.fabric.DoID(ctx, rc.id, fab))
}

// Terminated is the paper's r.terminated predicate: true if role r has
// finished its body in this performance, or if r will not be filled
// (membership has closed without it). Before the critical role set is
// covered, Terminated is false for all unfilled roles.
func (rc *RoleCtx) Terminated(r ids.RoleRef) bool {
	slot, _ := rc.resolve(r)
	rc.inst.mu.Lock()
	defer rc.inst.mu.Unlock()
	switch rc.st.perf.stateOf(slot, r) {
	case castFinished:
		return true
	case castFilled:
		return false
	}
	return rc.st.perf.membershipClosed
}

// Filled reports whether role r is filled (enrolled) in this performance.
func (rc *RoleCtx) Filled(r ids.RoleRef) bool {
	slot, _ := rc.resolve(r)
	rc.inst.mu.Lock()
	defer rc.inst.mu.Unlock()
	return rc.st.perf.stateOf(slot, r) != castUnfilled
}

// FamilySize returns the extent of the named role family in this
// performance: the declared size for fixed families, or the largest
// enrolled index so far for open-ended families (final once membership
// closes). It returns 0 for unknown names and scalar roles.
func (rc *RoleCtx) FamilySize(name string) int {
	decl, ok := rc.inst.def.decls[name]
	if !ok || !decl.family {
		return 0
	}
	if decl.size > 0 {
		return decl.size
	}
	rc.inst.mu.Lock()
	defer rc.inst.mu.Unlock()
	size := 0
	for r := range rc.st.perf.open {
		if r.Name == name {
			size = max(size, r.Index)
		}
	}
	return size
}

// EnrollIn enrolls from inside a role body into another script instance
// (nested enrollment) or into another instance of the same script
// (recursive scripts) — Section V. The enrollment runs in this goroutine,
// so the paper's continuation property is preserved transitively. If
// e.PID is empty it defaults to the enclosing process's PID.
//
// Enrolling into the *same* instance from a role body deadlocks under
// delayed policies (the current performance cannot end while the body
// waits); it is allowed, but callers should pass a cancellable context.
func (rc *RoleCtx) EnrollIn(other *Instance, e Enrollment) (Result, error) {
	if e.PID == ids.NoPID {
		e.PID = rc.st.offer.PID
	}
	return other.Enroll(rc.st.ctx, e)
}

// TraceID returns the performance's trace ID: non-zero when the performance
// was sampled for tracing, zero otherwise. The remote host echoes it in the
// OFFER-ACK so the client records its events on the same timeline. (The
// sampling verdict is written once at initiation, before any role body is
// woken, so this read is safe from the body's goroutine.)
func (rc *RoleCtx) TraceID() trace.TraceID { return rc.st.perf.traceID }

// AbortPerformance aborts this role's performance, blaming this role with
// the given reason. It is safe to call from any goroutine — the remote host
// (internal/remote) calls it from a connection reader when the process
// behind this role disconnects mid-performance — for as long as the RoleCtx
// is valid: while an Offer holder holds the offer, and for an Enroll body
// until that Enroll returns (see Offered.Ctx). It is a no-op once the
// performance has ended or the instance is closed. Co-performers blocked in
// (or later attempting) communication fail with an *AbortError naming this
// role as the culprit, and the instance moves on to the next cast.
func (rc *RoleCtx) AbortPerformance(reason string) {
	in := rc.inst
	in.mu.Lock()
	defer in.unlock()
	in.abortLocked(rc.st.perf, rc.st.offer.Role, reason)
	in.advanceLocked()
}

type peerState int

const (
	peerOK peerState = iota + 1
	peerAbsent
	peerFinished
	peerUnknown
)

// resolve looks role r up once for the operation that names it: its slot in
// the cast, which is also its endpoint in the fabric (-1 for a member of an
// open family, whose endpoint the cast holds); known is false when r is no
// role of the script. A closed role costs one probe of the name table, none
// when the operation before named the same role or family, and the
// definition is consulted only for a name without slots. It reads nothing a
// performance changes, so it needs no lock.
func (rc *RoleCtx) resolve(r ids.RoleRef) (slot int, known bool) {
	in := rc.inst
	if r.Name != rc.peerName {
		rc.peerName, rc.peerBase = r.Name, 0
		if base, ok := in.base[r.Name]; ok {
			rc.peerBase = base + 1
		}
	}
	if slot = in.slotFrom(rc.peerBase-1, r); slot >= 0 {
		return slot, true
	}
	return -1, in.def.checkRole(r) == nil
}

// availabilityLocked classifies role r, resolved to slot, for communication
// purposes. It runs with inst.mu held.
func (rc *RoleCtx) availabilityLocked(slot int, r ids.RoleRef, known bool) peerState {
	if !known {
		return peerUnknown
	}
	switch rc.st.perf.stateOf(slot, r) {
	case castFinished:
		if rc.st.perf.abortErr != nil {
			// The fabric answers with the abort, whose culprit may be r
			// itself: it did not finish, it was cut.
			return peerOK
		}
		return peerFinished
	case castFilled:
		return peerOK
	}
	if rc.st.perf.membershipClosed {
		return peerAbsent
	}
	return peerOK // unfilled but membership open: callers may block on it
}

// peer resolves the target of a point-to-point operation, to its slot and
// its endpoint, and validates it.
func (rc *RoleCtx) peer(r ids.RoleRef) (slot int, id rendezvous.ID, err error) {
	slot, known := rc.resolve(r)
	rc.inst.mu.Lock()
	st := rc.availabilityLocked(slot, r, known)
	if st == peerOK {
		id = rc.st.perf.endpointLocked(slot, r)
	}
	rc.inst.mu.Unlock()
	return slot, id, precheckErr(st, r)
}

// precheckErr is the error of communicating with a role in state st, nil
// for a role that can be waited on.
func precheckErr(st peerState, to ids.RoleRef) error {
	switch st {
	case peerUnknown:
		return fmt.Errorf("%w: %s", ErrUnknownRole, to)
	case peerAbsent:
		return fmt.Errorf("%w: %s", ErrRoleAbsent, to)
	case peerFinished:
		return fmt.Errorf("%w: %s", ErrRoleFinished, to)
	default:
		return nil
	}
}

// mapCommErr converts fabric errors into script-level errors; peer, resolved
// to slot, is the role a point-to-point operation named (zero otherwise).
func (rc *RoleCtx) mapCommErr(peer ids.RoleRef, slot int, err error) error {
	switch {
	case errors.Is(err, rendezvous.ErrPeerTerminated):
		if peer.Name != "" {
			rc.inst.mu.Lock()
			wasFilled := rc.st.perf.stateOf(slot, peer) != castUnfilled
			rc.inst.mu.Unlock()
			if wasFilled {
				return fmt.Errorf("%w: %s", ErrRoleFinished, peer)
			}
			return fmt.Errorf("%w: %s", ErrRoleAbsent, peer)
		}
		return ErrRoleFinished
	case errors.Is(err, rendezvous.ErrClosed):
		return ErrClosed
	default:
		return err
	}
}

// newSeededRNG returns a deterministic PRNG for fairness shuffles.
func newSeededRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
