package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

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

// lostErr is what a conversation cut short by err returns: the context's
// error when that ended (withdraw posts it like a lost connection, and a lost
// connection may be what a withdrawal looks like), else err as an ErrConnLost
// — one marked retryable when a connection loss struck before the OFFER-ACK.
func lostErr(ctx context.Context, err error, acked bool) error {
	switch cerr := ctx.Err(); {
	case cerr != nil:
		return cerr
	case !errors.Is(err, ErrConnLost): // the host refused the conversation, or the enroller closed
		return fmt.Errorf("%w: %v", ErrConnLost, err)
	case !acked:
		return lostBeforeAck{err}
	}
	return err
}

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
	st.ctx = ctx
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
	if err := mc.fw.WriteFrame(wire.MsgEnroll, st.id, 0, msg); err != nil {
		err = fmt.Errorf("%w: %v", ErrConnLost, err)
		mc.fail(err)
		mc.closeStream(st, false)
		return core.Result{}, lostErr(ctx, err, false)
	}

	// The withdraw path, and the only watch on ctx: streamWatch runs
	// the withdraw whenever ctx ends before Remove — including a ctx that was
	// already done when the ENROLL went out, which must still be withdrawn or
	// the host keeps a pending offer with no client behind it — and the
	// withdraw ends whichever wait the enrollment is in. One that Remove comes
	// too late for may still be running when this enrollment returns, and it
	// names st: the stream goes back for reuse only when Remove says the
	// withdraw will never run.
	streamWatch.Add(ctx, &st.entry)
	res, err := e.perform(ctx, st, enr)
	mc.closeStream(st, streamWatch.Remove(&st.entry))
	return res, err
}

// perform is the conversation from the ENROLL on the wire to the release.
// Each of its two waits is a receive on the stream's event channel: the
// reader posts the frames, and the connection's death and the context's end
// arrive there as errors (muxStream.fatal).
func (e *Enroller) perform(ctx context.Context, st *muxStream, enr core.Enrollment) (core.Result, error) {
	// Await assignment (or rejection).
	switch ev := <-st.events; {
	case ev.err != nil:
		return core.Result{}, lostErr(ctx, ev.err, false)
	case ev.typ == wire.MsgDrain:
		return core.Result{}, core.ErrDraining
	case ev.typ == wire.MsgComplete && st.cm.Err == nil:
		return core.Result{}, fmt.Errorf("%w: COMPLETE before OFFER-ACK", ErrConnLost)
	case ev.typ == wire.MsgComplete:
		return core.Result{}, cmp.Or(ctx.Err(), st.cm.Err.Err())
	}

	role := enr.Role
	if r, err := wire.DecodeRoleRef(st.ack.Role); err == nil {
		role = r
	}
	// The host's echoed trace ID wins (it is the performance's canonical ID),
	// the client-minted one is the fallback against hosts that predate
	// tracing.
	tid, _ := trace.ParseTraceID(st.ack.TraceID)
	rctx := &st.rctx
	*rctx = remoteCtx{
		ParamBag: core.ParamBag{In: enr.Args},
		ctx:      ctx,
		st:       st,
		role:     role,
		pid:      enr.PID,
		perf:     st.ack.Performance,
		tid:      cmp.Or(tid, enr.TraceID),
		tr:       e.cfg.Tracer,
		script:   e.cfg.Script,
	}
	rctx.trace(trace.Event{Kind: trace.KindStart})
	bodyErr := core.RunBody(enr.Body, rctx)
	rctx.trace(trace.Event{Kind: trace.KindFinish})
	st.bodyDone = wire.BodyDone{Results: rctx.Out, Err: wire.EncodeError(bodyErr)}
	// A body that failed once its context had ended is the withdrawal's to
	// report (CANCEL, which aborts the performance): a BODY-DONE would overtake
	// it and end the role on the host first. The withdrawal ends the wait below.
	if bodyErr == nil || ctx.Err() == nil {
		if err := st.mc.fw.WriteFrame(wire.MsgBodyDone, st.id, 0, &st.bodyDone); err != nil {
			err = fmt.Errorf("%w: %v", ErrConnLost, err)
			st.mc.fail(err)
			return core.Result{}, lostErr(ctx, err, true)
		}
	}

	// Await release.
	switch ev := <-st.events; {
	case ev.err != nil:
		return core.Result{}, lostErr(ctx, ev.err, true)
	case ev.typ == wire.MsgDrain:
		return core.Result{}, core.ErrDraining
	case st.cm.Err != nil:
		return core.Result{}, cmp.Or(ctx.Err(), st.cm.Err.Err())
	}
	res := core.Result{Performance: st.cm.Performance, Role: role, Values: st.cm.Values, TraceID: rctx.tid}
	if r, err := wire.DecodeRoleRef(st.cm.Role); err == nil {
		res.Role = r
	}
	return res, nil
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

// begin opens one operation exchange on the enrollment's stream (see
// muxStream.begin), unless the performance is known aborted or the
// enrollment's context ended: then the op fails locally, as in the local
// runtime.
func (r *remoteCtx) begin() (*opSlot, error) {
	if err := cmp.Or(r.abortErr, r.ctx.Err()); err != nil {
		return nil, err
	}
	sl, err := r.st.begin()
	if errors.Is(err, core.ErrPerformanceAborted) {
		r.abortErr = err
	}
	return sl, err
}

// finish completes the exchange — a sequence-matched request the host
// answers with exactly one OP-RESULT — mapping the outcome onto the local
// runtime's abort/cancel semantics.
func (r *remoteCtx) finish(sl *opSlot, t wire.MsgType, req any) (wire.OpResult, error) {
	res, err := r.st.finish(sl, t, req)
	if err == nil && res.Err != nil {
		err = res.Err.Err()
	}
	if err == nil {
		return res, nil
	}
	if cerr := r.ctx.Err(); cerr != nil && errors.Is(err, ErrConnLost) {
		err = cerr
	}
	if errors.Is(err, core.ErrPerformanceAborted) {
		r.abortErr = err
	}
	return wire.OpResult{}, err
}

// op is an exchange whose request has no struct in the slot.
func (r *remoteCtx) op(t wire.MsgType, req any) (wire.OpResult, error) {
	sl, err := r.begin()
	if err != nil {
		return wire.OpResult{}, err
	}
	return r.finish(sl, t, req)
}

func (r *remoteCtx) Send(to ids.RoleRef, v any) error { return r.SendTag(to, "", v) }

func (r *remoteCtx) SendTag(to ids.RoleRef, tag string, v any) error {
	sl, err := r.begin()
	if err == nil {
		sl.send = wire.Send{To: to.String(), Tag: tag, Val: v}
		_, err = r.finish(sl, wire.MsgSend, &sl.send)
	}
	if err == nil {
		r.trace(trace.Event{Kind: trace.KindSend, Peer: to, Detail: tag})
	}
	return err
}

func (r *remoteCtx) SendAll(tos []ids.RoleRef, v any) error {
	if len(tos) == 0 {
		return nil
	}
	sl, err := r.begin()
	if err == nil {
		wtos := sl.sendAll.Tos[:0]
		for _, to := range tos {
			wtos = append(wtos, to.String())
		}
		sl.sendAll = wire.SendAll{Tos: wtos, Val: v}
		_, err = r.finish(sl, wire.MsgSendAll, &sl.sendAll)
	}
	if err == nil {
		for _, to := range tos {
			r.trace(trace.Event{Kind: trace.KindSend, Peer: to})
		}
	}
	return err
}

func (r *remoteCtx) Recv(from ids.RoleRef) (any, error) { return r.RecvTag(from, "") }

func (r *remoteCtx) RecvTag(from ids.RoleRef, tag string) (any, error) {
	sl, err := r.begin()
	if err != nil {
		return nil, err
	}
	sl.recv = wire.Recv{From: from.String(), Tag: tag}
	res, err := r.finish(sl, wire.MsgRecv, &sl.recv)
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
	// All guards false is decided locally, as in the local runtime: no
	// round trip, no fabric involvement.
	if !slices.ContainsFunc(branches, core.SelectBranch.Enabled) {
		return core.Selected{}, core.ErrNoBranches
	}
	sl, err := r.begin()
	if err != nil {
		return core.Selected{}, err
	}
	wbs := sl.sel.Branches[:0]
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
	sl.sel.Branches = wbs
	res, err := r.finish(sl, wire.MsgSelect, &sl.sel)
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
