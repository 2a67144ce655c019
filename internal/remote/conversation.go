package remote

import (
	"context"
	"errors"
	"fmt"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/trace"
	"github.com/scriptabs/goscript/internal/wire"
)

// This file is the client side of one enrollment conversation: ENROLL to
// COMPLETE on a stream of a muxConn (mux.go), with the role body running
// here against a remoteCtx whose operations are proxied over that stream.
// Which host, how often to retry, and bloc enrollment live in enroller.go.

// enrollMux runs one offer on a reserved stream slot and applies the
// withdraw-retirement policy: a connection is retired once a withdrawn
// enrollment was its last user, so a withdrawn enroller never pins a host
// connection slot (caps and observable connection counts then behave
// identically whether or not the connection was shared).
func (e *Enroller) enrollMux(ctx context.Context, mc *muxConn, enr core.Enrollment) (core.Result, error) {
	res, err := e.converse(ctx, mc, enr)
	if err != nil && ctx.Err() != nil && mc.active() == 0 {
		mc.fail(fmt.Errorf("%w: connection retired after withdrawal", ErrConnLost))
	}
	return res, err
}

// lostBeforeAck is a connection loss that struck a conversation before its
// OFFER-ACK. The body runs only after that frame, so nothing of the
// enrollment has happened on this side and the offer may go out again: the
// error still matches ErrConnLost, and Retryable accepts it.
type lostBeforeAck struct{ error }

func (e lostBeforeAck) Unwrap() error { return e.error }

// converse runs one enrollment conversation on a reserved stream slot, start
// to release: ENROLL, await OFFER-ACK, run the body here with its ops
// proxied over the stream, BODY-DONE, await COMPLETE.
func (e *Enroller) converse(ctx context.Context, mc *muxConn, enr core.Enrollment) (core.Result, error) {
	st, err := mc.openStream()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return core.Result{}, cerr
		}
		if errors.Is(err, ErrConnLost) {
			err = lostBeforeAck{err}
		}
		return core.Result{}, err
	}
	// The stream goes back for reuse only from an enrollment whose withdraw
	// can no longer run (set below, once there is one to stop).
	recycle := false
	defer func() { mc.closeStream(st, recycle) }()

	wrapErr := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if errors.Is(err, ErrConnLost) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	// wrapLost is wrapErr for a transport failure ahead of the OFFER-ACK.
	wrapLost := func(err error) error {
		if err = wrapErr(err); errors.Is(err, ErrConnLost) {
			return lostBeforeAck{err}
		}
		return err // the context ended first
	}

	msg := &st.enroll
	*msg = wire.Enroll{
		PID:     string(enr.PID),
		Role:    enr.Role.String(),
		Args:    enr.Args,
		With:    wire.EncodeWith(enr.With),
		TraceID: enr.TraceID.String(),
	}
	if !enr.Deadline.IsZero() {
		msg.DeadlineMS = enr.Deadline.UnixMilli()
	}
	if err := mc.write(wire.MsgEnroll, st.id, 0, msg); err != nil {
		mc.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
		return core.Result{}, wrapLost(err)
	}

	// The withdraw path. AfterFunc runs the withdraw whenever ctx ends before
	// stop — including a ctx that was already done when the ENROLL went out,
	// which must still be withdrawn or the host keeps a pending offer with
	// no client behind it. A withdraw that stop comes too late for may still
	// be running when this enrollment returns, and it names st.
	stop := context.AfterFunc(ctx, st.withdraw)
	defer func() { recycle = stop() }()

	// Await assignment (or rejection).
	var ack wire.OfferAck
await:
	for {
		select {
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		case ev := <-st.events:
			switch {
			case errors.Is(ev.err, ErrConnLost):
				return core.Result{}, wrapLost(ev.err)
			case ev.err != nil: // the host refused the conversation, or the enroller closed
				return core.Result{}, wrapErr(ev.err)
			case ev.typ == wire.MsgOfferAck:
				ack = ev.ack
				break await
			case ev.typ == wire.MsgDrain:
				return core.Result{}, core.ErrDraining
			case ev.typ == wire.MsgComplete:
				if ev.cm.Err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return core.Result{}, cerr
					}
					return core.Result{}, ev.cm.Err.Err()
				}
				return core.Result{}, fmt.Errorf("%w: COMPLETE before OFFER-ACK", ErrConnLost)
			}
		}
	}

	role := enr.Role
	if r, err := wire.DecodeRoleRef(ack.Role); err == nil {
		role = r
	}
	rctx := &remoteCtx{
		ParamBag: core.ParamBag{In: enr.Args},
		ctx:      ctx,
		st:       st,
		role:     role,
		pid:      enr.PID,
		perf:     ack.Performance,
	}
	e.bindTrace(rctx, ack.TraceID, enr.TraceID)
	rctx.trace(trace.Event{Kind: trace.KindStart})
	bodyErr := runClientBody(enr.Body, rctx)
	rctx.trace(trace.Event{Kind: trace.KindFinish})
	st.bodyDone = wire.BodyDone{Results: rctx.Out, Err: wire.EncodeError(bodyErr)}
	if err := mc.write(wire.MsgBodyDone, st.id, 0, &st.bodyDone); err != nil {
		mc.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
		return core.Result{}, wrapErr(err)
	}

	// Await release.
	for {
		select {
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		case ev := <-st.events:
			switch {
			case ev.err != nil:
				return core.Result{}, wrapErr(ev.err)
			case ev.typ == wire.MsgComplete:
				if ev.cm.Err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return core.Result{}, cerr
					}
					return core.Result{}, ev.cm.Err.Err()
				}
				res := core.Result{Performance: ev.cm.Performance, Role: role, Values: ev.cm.Values, TraceID: rctx.tid}
				if r, err := wire.DecodeRoleRef(ev.cm.Role); err == nil {
					res.Role = r
				}
				return res, nil
			}
		}
	}
}

// runClientBody runs the body with the same panic containment the local
// scheduler applies: a panicking body surfaces as an error, not a crash of
// the enrolling process's runtime.
func runClientBody(body core.RoleBody, rc core.Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("script: role body panicked: %v", r)
		}
	}()
	return body(rc)
}

// remoteCtx is the client-side Ctx: the body's view of a performance whose
// coordination state lives in the serving process. Every communication and
// predicate is one request/response exchange; data parameters and results
// stay local (they cross the wire at ENROLL and BODY-DONE).
type remoteCtx struct {
	core.ParamBag
	ctx  context.Context
	st   *muxStream
	role ids.RoleRef
	pid  ids.PID
	perf int
	// abortErr, once set, fails every subsequent operation locally: the
	// host told us (via ABORT or an operation result) that the performance
	// was aborted. Mirrors the local semantics — the body keeps running,
	// its communications fail.
	abortErr error
	// tid is the performance's trace ID (echoed by the host's OFFER-ACK, or
	// the client-minted one against a pre-tracing host); tr and script feed
	// the client-side event recording of traced calls. All zero/nil when
	// the call is untraced.
	tid    trace.TraceID
	tr     trace.Tracer
	script string
}

// bindTrace wires the client-side tracing of one assigned enrollment: the
// host's echoed trace ID wins (it is the performance's canonical ID), the
// client-minted one is the fallback against hosts that predate tracing.
func (e *Enroller) bindTrace(r *remoteCtx, ackID string, minted trace.TraceID) {
	r.tid, _ = trace.ParseTraceID(ackID)
	if r.tid == 0 {
		r.tid = minted
	}
	r.tr = e.cfg.Tracer
	r.script = e.cfg.Script
}

// trace records a client-side event of a traced call, stamping the shared
// performance identity; a no-op when the call is untraced or no Tracer is
// configured.
func (r *remoteCtx) trace(e trace.Event) {
	if r.tr == nil || r.tid == 0 {
		return
	}
	e.TraceID = r.tid
	e.Script = r.script
	e.Performance = r.perf
	e.Role = r.role
	e.PID = r.pid
	r.tr.Record(e)
}

// TraceID returns the performance's trace ID (zero when untraced).
func (r *remoteCtx) TraceID() trace.TraceID { return r.tid }

var _ core.Ctx = (*remoteCtx)(nil)

func (r *remoteCtx) Context() context.Context { return r.ctx }
func (r *remoteCtx) Role() ids.RoleRef        { return r.role }
func (r *remoteCtx) Index() int               { return r.role.Index }
func (r *remoteCtx) PID() ids.PID             { return r.pid }
func (r *remoteCtx) Performance() int         { return r.perf }

// op runs one operation exchange on the enrollment's stream — a
// sequence-matched request the host answers with exactly one OP-RESULT —
// mapping the outcome onto the local runtime's abort/cancel semantics.
func (r *remoteCtx) op(t wire.MsgType, req any) (wire.OpResult, error) {
	if r.abortErr != nil {
		return wire.OpResult{}, r.abortErr
	}
	if err := r.ctx.Err(); err != nil {
		return wire.OpResult{}, err
	}
	if aerr := r.st.abortError(); aerr != nil {
		r.abortErr = aerr
		return wire.OpResult{}, aerr
	}
	res, err := r.st.op(r.ctx, t, req)
	if err != nil {
		if errors.Is(err, ErrConnLost) {
			if cerr := r.ctx.Err(); cerr != nil {
				return wire.OpResult{}, cerr
			}
		}
		if errors.Is(err, core.ErrPerformanceAborted) {
			r.abortErr = err
		}
		return wire.OpResult{}, err
	}
	if res.Err != nil {
		opErr := res.Err.Err()
		if errors.Is(opErr, core.ErrPerformanceAborted) {
			r.abortErr = opErr
		}
		return wire.OpResult{}, opErr
	}
	return res, nil
}

func (r *remoteCtx) Send(to ids.RoleRef, v any) error { return r.SendTag(to, "", v) }

func (r *remoteCtx) SendTag(to ids.RoleRef, tag string, v any) error {
	_, err := r.op(wire.MsgSend, &wire.Send{To: to.String(), Tag: tag, Val: v})
	if err == nil {
		r.trace(trace.Event{Kind: trace.KindSend, Peer: to, Detail: tag})
	}
	return err
}

func (r *remoteCtx) SendAll(tos []ids.RoleRef, v any) error {
	if len(tos) == 0 {
		return nil
	}
	wtos := make([]string, len(tos))
	for i, to := range tos {
		wtos[i] = to.String()
	}
	_, err := r.op(wire.MsgSendAll, &wire.SendAll{Tos: wtos, Val: v})
	if err == nil {
		for _, to := range tos {
			r.trace(trace.Event{Kind: trace.KindSend, Peer: to})
		}
	}
	return err
}

func (r *remoteCtx) Recv(from ids.RoleRef) (any, error) { return r.RecvTag(from, "") }

func (r *remoteCtx) RecvTag(from ids.RoleRef, tag string) (any, error) {
	res, err := r.op(wire.MsgRecv, &wire.Recv{From: from.String(), Tag: tag})
	if err != nil {
		return nil, err
	}
	r.trace(trace.Event{Kind: trace.KindRecv, Peer: from, Detail: tag})
	return res.Val, nil
}

func (r *remoteCtx) RecvAny() (ids.RoleRef, string, any, error) {
	res, err := r.op(wire.MsgRecvAny, &wire.Recv{})
	if err != nil {
		return ids.RoleRef{}, "", nil, err
	}
	from, perr := wire.DecodeRoleRef(res.Peer)
	if perr != nil {
		return ids.RoleRef{}, "", nil, fmt.Errorf("script/remote: bad peer %q: %v", res.Peer, perr)
	}
	r.trace(trace.Event{Kind: trace.KindRecv, Peer: from, Detail: res.Tag})
	return from, res.Tag, res.Val, nil
}

func (r *remoteCtx) Select(branches ...core.SelectBranch) (core.Selected, error) {
	wbs := make([]wire.SelectBranch, 0, len(branches))
	for i, b := range branches {
		if !b.Enabled() {
			continue
		}
		peer, anyPeer := b.BranchPeer()
		wb := wire.SelectBranch{
			Send:    b.IsSend(),
			AnyPeer: anyPeer,
			Tag:     b.BranchTag(),
			Val:     b.BranchValue(),
			Index:   i,
		}
		if !anyPeer {
			wb.Peer = peer.String()
		}
		wbs = append(wbs, wb)
	}
	// All guards false is decided locally, as in the local runtime: no
	// round trip, no fabric involvement.
	if len(wbs) == 0 {
		return core.Selected{}, core.ErrNoBranches
	}
	res, err := r.op(wire.MsgSelect, &wire.Select{Branches: wbs})
	if err != nil {
		return core.Selected{}, err
	}
	peer, perr := wire.DecodeRoleRef(res.Peer)
	if perr != nil {
		return core.Selected{}, fmt.Errorf("script/remote: bad peer %q: %v", res.Peer, perr)
	}
	kind := trace.KindRecv
	if res.Index >= 0 && res.Index < len(branches) && branches[res.Index].IsSend() {
		kind = trace.KindSend
	}
	r.trace(trace.Event{Kind: kind, Peer: peer, Detail: res.Tag})
	return core.Selected{Index: res.Index, Peer: peer, Tag: res.Tag, Val: res.Val}, nil
}

func (r *remoteCtx) Terminated(role ids.RoleRef) bool {
	res, err := r.op(wire.MsgQuery, &wire.Query{Kind: wire.QueryTerminated, Role: role.String()})
	return err == nil && res.Bool
}

func (r *remoteCtx) Filled(role ids.RoleRef) bool {
	res, err := r.op(wire.MsgQuery, &wire.Query{Kind: wire.QueryFilled, Role: role.String()})
	return err == nil && res.Bool
}

func (r *remoteCtx) FamilySize(name string) int {
	res, err := r.op(wire.MsgQuery, &wire.Query{Kind: wire.QueryFamilySize, Name: name})
	if err != nil {
		return 0
	}
	return res.N
}
