package remote

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/trace"
	"github.com/scriptabs/goscript/internal/wire"
)

// This file is the host side of every handshaken connection, whichever
// protocol version it negotiated: one connection carries concurrent
// enrollments, each on its own stream ID, and — when HostConfig.ResumeWindow
// is set — the conversation survives the connection. The per-conversation
// state lives in a hostSession, which outlives any one transport: a
// connection death with live streams *parks* the session for the grace
// window instead of aborting its performances, and a client redialing with
// the session token within the window re-attaches via a RESUME/RESUME-ACK
// exchange that replays the frames the blip swallowed. With resumption off
// (the default) a session dies with its only connection, which is exactly
// the pre-resumption behavior. A v1 connection is the degenerate case: its
// frames carry no stream/seq envelope, so it has the one stream 0, ops one
// at a time, and never a resumable session.

// streamOpBacklog bounds undrained ops buffered per stream, on either
// protocol. A v2 client pipelines ops without awaiting results, so the
// backlog is deeper than a lock-step conversation needs; a client exceeding
// it is flooding.
const streamOpBacklog = 16

// hostStream is the session's handle on one in-flight enrollment, and the
// enrollment's core.Handoff. It outlives the enrollment: an enrollment that
// ran its course leaves its hostStream — bridge, op backlog, message structs
// and a context nobody cancelled — on the session's free list for a later
// ENROLL.
type hostStream struct {
	s *hostSession
	b bridge
	// enroll is the ENROLL that opened the stream, copied out of the reader's
	// struct. cm is the COMPLETE that ends it and term the type of the
	// terminal frame (COMPLETE, DRAIN, or none), written by whoever ends the
	// enrollment (see outcome).
	enroll wire.Enroll
	cm     wire.Complete
	term   wire.MsgType
	ctx    context.Context
	// cancel ends the enrollment's context, part of severing it.
	cancel context.CancelFunc
	// admitted records that admitEnroll counted the enrollment, until finish
	// uncounts it.
	admitted bool

	// Under smu: o is the offer, adopted by the reader once Offer returns or
	// by an assignment that overtook it; phase is where the enrollment stands,
	// written by step alone; abort is an Aborted of offer abortOf that came
	// before an assignment's Settled, for the OFFER-ACK to carry behind it if
	// the assignment is abortOf's.
	o       core.Offered
	phase   streamPhase
	abort   *core.AbortError
	abortOf core.Offered
	// severed is the reason some goroutine other than its owner is ending the
	// enrollment (CANCEL, flood, teardown), "" until then. Set under smu in the
	// critical section that found the stream, it keeps the hostStream off the
	// free list, so the abort, cancel and cut that follow can only ever hit
	// this enrollment, and it stops the reader handing the stream ops.
	severed string
}

// streamPhase is where a stream's enrollment stands; each names who owns
// the stream, the one goroutine that may end it and use its RoleCtx.
type streamPhase uint8

const (
	streamOver     streamPhase = iota // nobody: the enrollment has ended, or none has begun on the hostStream
	streamOffering                    // the reader, inside Offer (a hand-off may overtake it)
	streamPending                     // the hand-off: the offer waits in the core, with no goroutine
	streamIdle                        // whoever takes it to serving: the role plays, no op of it is posted and its backlog is empty
	streamServing                     // who took it: the hand-off writing OFFER-ACK, the completer of its posted op, the reader ending it at BODY-DONE, or a sever
	streamReleased                    // serving, and Released came first: the role's ender finishes it at its held step
	streamHeld                        // Released: the body returned, the role is held for delayed termination
)

// hostEvent is what moves a stream's phase, named for who raises it.
type hostEvent uint8

const (
	evEnroll   hostEvent = iota // the reader: an ENROLL took the hostStream
	evOffered                   // the reader: target.Offer returned the offer
	evOp                        // the reader: an op frame
	evBodyDone                  // the reader: BODY-DONE
	evAssigned                  // Settled(o, nil)
	evServed                    // Settled past its OFFER-ACK, or the posted op's completer past its OP-RESULT
	evRefused                   // Settled(o, err), or the reader refusing the ENROLL
	evAborted                   // Aborted(o, ae)
	evReleased                  // Released
	evEnded                     // the role's ender: Finish returned, not held
	evHeld                      // the role's ender: Finish returned, held
	evSevered                   // the severing goroutine: CANCEL, flood, teardown
	evLooked                    // cut: Look withdrew the offer or cut the role loose
	evFinish                    // finish
)

// hostAct is what a cell has the goroutine that raised its event do.
type hostAct uint8

const (
	actNone      hostAct = iota
	actAdopt             // keep the offer
	actCut               // keep the offer, if the event brings one, and Look at a pending offer or a held role; a sever ends the context first
	actPost              // post the op into the fabric, its completer the stream
	actQueue             // queue the op in the backlog, or sever the stream as flooding
	actEnd               // end the role at its BODY-DONE
	actAck               // write OFFER-ACK and the stashed ABORT behind it
	actNext              // take the backlog's next op
	actLose              // abort the performance blaming the role, and end the role as lost
	actStash             // keep the abort for the assignment's OFFER-ACK
	actAbort             // write the ABORT, if it is of the stream's offer
	actAnswer            // answer the offer with the event's error, and finish
	actFinish            // finish the enrollment
	actCancel            // end the context
	actAbortPerf         // abort the performance with the sever's reason, and end the context
	actTerminal          // free the slot, write the terminal frame and recycle
	actViolate           // a cell that cannot occur
)

// step is the host's transition table, the only writer of a stream's phase:
// it moves st's phase for event e and returns what the cell does — actViolate,
// phase unmoved, for a cell that cannot occur. Besides the phase a cell may
// read three inputs, in precedence order (a cell that reads two decides by the
// first that is set): failed, the frame the event's goroutine wrote was not
// delivered; the severed mark; ops waiting in the backlog. It is called under
// smu, and does no I/O.
func (st *hostStream) step(e hostEvent, failed bool) hostAct {
	p, sev, more := st.phase, st.severed != "", e == evServed && len(st.b.opCh) > 0 // only served reads the backlog: len is a call
	next, a := p, actViolate
	offering, placed := p == streamOffering || p == streamPending, p != streamOffering && p != streamOver
	switch frame := e == evOp || e == evBodyDone; {
	case e == evEnroll && p == streamOver:
		next, a = streamOffering, actNone
	case e == evOffered && p == streamOffering && sev: // torn down while the reader was inside Offer
		next, a = streamPending, actCut
	case e == evOffered && p == streamOffering:
		next, a = streamPending, actAdopt
	case e == evOffered && p != streamPending, e == evAborted && (p == streamHeld || p == streamOver), e == evSevered && p == streamOver, frame && placed && sev:
		a = actNone // a hand-off overtook the reader; nobody reads the ABORT; severed after its end; dropped, whoever severed it ends it
	case e == evOp && p == streamIdle:
		next, a = streamServing, actPost
	case e == evBodyDone && p == streamIdle:
		next, a = streamServing, actEnd
	case frame && placed:
		a = actQueue
	case e == evAssigned && offering && sev:
		next, a = streamServing, actLose
	case e == evAssigned && offering:
		next, a = streamServing, actAck
	case e == evServed && p == streamServing && (failed || sev):
		a = actLose
	case e == evServed && p == streamServing && more:
		a = actNext
	case e == evServed && p == streamServing:
		next, a = streamIdle, actNone
	case e == evRefused && offering, e == evLooked && p == streamPending:
		a = actAnswer
	case e == evAborted && offering:
		a = actStash
	case e == evAborted && placed:
		a = actAbort
	case e == evReleased && p == streamServing:
		next, a = streamReleased, actNone
	case (e == evReleased || e == evLooked) && p == streamHeld, e == evEnded && p == streamServing, e == evHeld && p == streamReleased:
		a = actFinish
	case e == evHeld && p == streamServing && sev: // severed while its body was ending
		next, a = streamHeld, actCut
	case e == evHeld && p == streamServing:
		next, a = streamHeld, actNone
	case e == evSevered && p == streamOffering: // the reader cuts it once Offer returns
		a = actCancel
	case e == evSevered && (p == streamPending || p == streamHeld):
		a = actCut
	case e == evSevered && p == streamIdle:
		next, a = streamServing, actLose
	case e == evSevered: // serving or released: whoever serves it ends it
		a = actAbortPerf
	case e == evFinish && p != streamIdle && p != streamOver:
		next, a = streamOver, actTerminal
	}
	st.phase = next
	return a
}

// stepLocked steps st's table for event e, under smu. A cell that cannot
// occur is a defect of the host's: it is logged and counted, and the session
// torn down.
func (s *hostSession) stepLocked(st *hostStream, e hostEvent, failed bool) hostAct {
	p, a := st.phase, st.step(e, failed)
	if a == actViolate {
		streamViolations.Inc()
		s.h.logf("remote: %s: stream %d: event %d cannot occur in phase %d; tearing the session down", s.remote, st.b.streamID, e, p)
		go s.teardown()
	}
	return a
}

// raise steps st's table for event e under smu, for the caller to run the
// cell once the lock is released.
func (st *hostStream) raise(e hostEvent) hostAct {
	st.s.smu.Lock()
	defer st.s.smu.Unlock()
	return st.s.stepLocked(st, e, false)
}

// hostSession owns the server side of one conversation across however
// many transport connections it takes to finish it. Its lifecycle:
// attached (cur serves it) → broken → parked (resumable, grace timer
// running) or torn down; a RESUME within the grace window re-attaches it.
// Sessions whose handshake did not negotiate resumption (token == "") skip
// the parked state entirely: their first break is their teardown.
type hostSession struct {
	h *Host
	// remote is the address the conversation was opened from, for logs.
	remote string
	token  string        // "" when resumption was not negotiated
	sess   *wire.Session // nil iff token == ""
	// fw is where the session's stream frames go, fixed at creation: sess
	// (stable across reconnects), or the conversation's only connection.
	fw frameWriter
	// lockstep marks a v1 conversation: its frames have no envelope, so its
	// one stream is stream 0 (reserved for control traffic on v2).
	lockstep bool

	smu     sync.Mutex
	cur     *wire.Conn // connection currently serving; nil while parked
	streams map[uint64]*hostStream
	// free holds finished enrollments' hostStreams for reuse. Every frame's
	// hand-off to a stream (an op into its backlog, the severed mark) happens
	// under smu together with the lookup in streams, and a hostStream joins
	// free under smu after it left streams, so nothing aimed at a finished
	// enrollment reaches the one that inherits its hostStream.
	free  []*hostStream
	byed  bool        // client sent BYE: never park again
	done  bool        // torn down
	timer *time.Timer // grace timer while parked
}

func newHostSession(h *Host, c *wire.Conn, token string, lockstep bool) *hostSession {
	s := &hostSession{
		h:        h,
		remote:   fmt.Sprint(c.RemoteAddr()),
		token:    token,
		lockstep: lockstep,
		cur:      c,
		fw:       c,
		streams:  make(map[uint64]*hostStream),
	}
	if token != "" {
		s.sess = wire.NewSession(c, token, 0)
		s.fw = s.sess
	}
	return s
}

// mintSessionToken returns a fresh unguessable session token, or "" if the
// system's entropy source fails (in which case resumption is silently not
// offered on this connection).
func mintSessionToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

func (h *Host) registerSession(s *hostSession) {
	h.mu.Lock()
	h.sessions[s.token] = s
	h.mu.Unlock()
}

func (h *Host) unregisterSession(s *hostSession) {
	h.mu.Lock()
	if h.sessions[s.token] == s {
		delete(h.sessions, s.token)
	}
	h.mu.Unlock()
}

// serveSession serves one handshaken connection until it dies. The first
// frame decides what the connection is: on v2, a RESUME re-attaches an
// existing session (parked, or live on a connection whose death the client
// noticed first); anything else starts a fresh session with that frame as
// its first traffic. So does no frame at all: a connection cut before its
// first frame arrived has a client behind it that holds the token, and may
// hold an ENROLL to replay.
func (h *Host) serveSession(c *wire.Conn, token string) {
	t, stream, seq, m, err := c.ReadFrame()
	lockstep := c.Version() < 2
	if lockstep {
		h.connsV1.Add(1)
	} else {
		h.connsV2.Add(1)
		if err == nil && t == wire.MsgResume {
			if s := h.adoptSession(c, m.(*wire.Resume)); s != nil {
				h.runConn(s, c, nil)
			}
			return
		}
	}
	s := newHostSession(h, c, token, lockstep)
	if token != "" {
		h.registerSession(s)
	}
	if err != nil {
		s.connBroken(c)
		return
	}
	h.runConn(s, c, &preRead{t: t, stream: stream, seq: seq, m: m})
}

// adoptSession re-attaches the session named by a RESUME to a freshly
// handshaken connection: RESUME-ACK (carrying our receipt count, the
// client's prune+replay instruction) goes out first, then the unacked
// suffix of our own ring. A draining host adopts too — drain honors parked
// work; only *new* enrollments on the resumed connection answer DRAIN.
// Refusals (unknown/expired token, unresumable ring) are answered with a
// protocol error so the client fails over to its terminal path at once.
func (h *Host) adoptSession(c *wire.Conn, r *wire.Resume) *hostSession {
	refuse := func(msg string) {
		h.logf("remote: %s: refusing RESUME: %s", c.RemoteAddr(), msg)
		_ = c.WriteFrame(wire.MsgError, 0, 0, &wire.ProtoError{Msg: "RESUME refused: " + msg})
	}
	h.mu.Lock()
	s := h.sessions[r.Token]
	h.mu.Unlock()
	if s == nil {
		refuse("unknown or expired session")
		return nil
	}
	if !s.adopt(c, r, refuse) {
		return nil
	}
	return s
}

func (s *hostSession) adopt(c *wire.Conn, r *wire.Resume, refuse func(string)) bool {
	s.smu.Lock()
	if s.done {
		s.smu.Unlock()
		refuse("session already torn down")
		return false
	}
	// A live old connection means the client noticed the break before we
	// did. Supersede: closing it (outside the lock, since a close waits for
	// its flusher's last pass and an assignment's hand-off may wait for smu
	// under the instance's lock) fails its read loop, which finds it is no
	// longer current and leaves the session alone.
	old := s.cur
	s.sess.Detach()
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.cur = c
	n, recvd := len(s.streams), s.sess.RecvCount() // what the retired reader counted, and no more (see handle)
	s.smu.Unlock()
	if old != nil {
		old.Close()
	}

	// RESUME-ACK strictly before the replayed suffix (both from this
	// goroutine, through the conn's ordered writer): the enroller reads the
	// ack synchronously before releasing its own writers onto the wire. The
	// session writes it only once the client's count is found good.
	if err := s.sess.Resume(c, r.RecvCount, &wire.ResumeAck{RecvCount: recvd}); err != nil {
		refuse(err.Error())
		if errors.Is(err, wire.ErrSessionDoomed) {
			// Exactly-once replay is impossible: degrade to the abort path,
			// which is the bounded-memory contract.
			s.smu.Lock()
			s.cur = nil
			s.smu.Unlock()
			s.teardown()
		} else {
			// A count the session cannot honour, refused before any RESUME-ACK:
			// the session parks again, for a RESUME that can be.
			s.connBroken(c)
		}
		return false
	}
	sessionsResumed.Inc()
	s.h.logf("remote: %s: session resumed (%d streams live)", c.RemoteAddr(), n)
	return true
}

// connBroken is the read loop's exit path for a transport failure on c. If
// the session is still resumable — resumption negotiated (it has a token),
// grace window configured, ring intact, no BYE, host not closing — it parks
// for the grace window; otherwise it tears down, which reproduces the
// pre-resumption abort semantics exactly. A session with no live stream
// parks too: the client's first ENROLL may be in the socket the cut emptied,
// or in its ring, and the RESUME that replays it must find the session. An
// idle one that nobody resumes costs a timer until the window closes.
func (s *hostSession) connBroken(c *wire.Conn) {
	s.smu.Lock()
	if s.done || s.cur != c {
		// Torn down already, or superseded by a RESUME on a newer
		// connection: this transport's death is old news.
		s.smu.Unlock()
		return
	}
	s.cur = nil
	window := s.h.cfg.ResumeWindow
	parkable := s.sess != nil && window > 0 && !s.byed && !s.sess.Doomed() && !s.h.isClosed()
	if !parkable {
		s.smu.Unlock()
		s.teardown()
		return
	}
	s.sess.Detach()
	s.timer = time.AfterFunc(window, s.expire)
	n := len(s.streams)
	s.smu.Unlock()
	sessionsParked.Inc()
	s.h.logf("remote: session parked: %d streams live, %s grace", n, window)
}

// expire fires when the grace window elapses with the session still parked:
// the transport failure hardens into a session failure and every live
// stream is reclaimed through the same path a plain disconnect uses.
func (s *hostSession) expire() {
	s.smu.Lock()
	if s.done || s.cur != nil {
		s.smu.Unlock()
		return
	}
	s.smu.Unlock()
	sessionsExpired.Inc()
	s.h.logf("remote: parked session expired after %s", s.h.cfg.ResumeWindow)
	s.teardown()
}

// teardown ends the session for good: every live stream lost its enroller —
// reclaim its performance, blaming the vanished role, which fails a posted op
// through the fabric; withdraw a still-pending offer; cut a held role loose.
// Nothing more is written for any of them. Idempotent; safe from any
// goroutine.
func (s *hostSession) teardown() {
	s.smu.Lock()
	if s.done {
		s.smu.Unlock()
		return
	}
	s.done = true
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	cur := s.cur
	s.cur = nil
	streams := make([]*hostStream, 0, len(s.streams))
	for _, st := range s.streams {
		if st.severed == "" { // one severed already is being ended by whoever severed it
			st.severed = enrollerGone
			streams = append(streams, st)
		}
	}
	free := s.free
	s.free = nil
	s.smu.Unlock()
	if s.sess != nil {
		s.sess.Detach()
		s.h.unregisterSession(s)
	}
	if cur != nil {
		cur.Close()
	}
	for _, st := range streams {
		s.sever(st)
	}
	for _, st := range free {
		st.cancel() // a recycled context ends with its session
	}
}

// offer places the ENROLL that opened st with the target, on the connection's
// reader: decoding, admission and the offer itself. A refusal is answered
// here; an offer placed waits in the core with no goroutine of its own until
// its hand-off (Settled), which may come before Offer returns.
func (s *hostSession) offer(st *hostStream) {
	h, m := s.h, &st.enroll
	if err := h.admitEnroll(s.remote, m.Role); err != nil {
		st.outcome(core.Result{}, err)
		if err == errHostClosed { // whose connections are closing: nobody is there to answer
			st.term = 0
		}
		s.finish(st)
		return
	}
	st.admitted = true
	role, err := wire.DecodeRoleRef(m.Role)
	if err != nil {
		s.answer(st, st.raise(evRefused), fmt.Errorf("%w: %s", core.ErrUnknownRole, m.Role))
		return
	}
	with, err := wire.DecodeWith(m.With)
	if err != nil {
		s.answer(st, st.raise(evRefused), err)
		return
	}
	e := core.Enrollment{PID: ids.PID(m.PID), Role: role, Args: m.Args, With: with}
	if m.DeadlineMS > 0 {
		e.Deadline = time.UnixMilli(m.DeadlineMS)
	}
	// A malformed client trace ID is not worth failing the call over — the
	// enrollment just runs without the client's timeline.
	e.TraceID, _ = trace.ParseTraceID(m.TraceID)
	o, err := h.target.Offer(st.ctx, e, st)
	if err != nil {
		s.answer(st, st.raise(evRefused), err)
		return
	}
	s.smu.Lock()
	a := s.stepLocked(st, evOffered, false)
	if a == actAdopt || a == actCut {
		st.o = o
	}
	s.smu.Unlock()
	if a == actCut {
		s.cut(st)
	}
}

// Settled is the stream's hand-off from the core (core.Handoff), on the
// goroutine that formed the cast or turned the offer away. An assignment
// writes the OFFER-ACK there, with the performance's trace ID, and leaves the
// role idle until its first op (or posts it, should ops have come first); a
// stream severed meanwhile, or whose OFFER-ACK does not go out, is lost
// instead. A turn-away by Close or Drain is answered at once.
func (st *hostStream) Settled(o core.Offered, err error) {
	s := st.s
	if err != nil {
		s.answer(st, st.raise(evRefused), err)
		return
	}
	rc := o.Ctx()
	s.smu.Lock()
	a, lost := s.stepLocked(st, evAssigned, false), st.severed
	if a != actViolate {
		st.o = o
	}
	if a == actAck {
		st.b.ack = wire.OfferAck{Performance: rc.Performance(), Role: rc.Role().String(), TraceID: rc.TraceID().String()}
		if st.b.write(wire.MsgOfferAck, 0, &st.b.ack) != nil {
			lost = enrollerGone + ": offer not delivered"
		} else {
			st.writeAbortLocked(st.abortOf, st.abort) // one that overtook this hand-off
		}
		if a = s.stepLocked(st, evServed, lost != ""); a == actNext {
			st.b.op = <-st.b.opCh
		}
	}
	s.smu.Unlock()
	st.run(a, lost)
}

// Aborted tells the enroller offer o's performance was aborted, on the
// goroutine that aborted it (core.Handoff): the role's later ops fail on the
// client, as in the local runtime. The ABORT is written under smu, so it goes
// out behind the OFFER-ACK — one that overtakes the assignment's Settled is
// stashed for Settled to write — and ahead of the COMPLETE, which finish
// writes only once it has stepped the stream over under smu. An abort of an
// earlier enrollment on this hostStream, whose role ended before the hand-off
// was made, is dropped: it is not the stream's current offer.
func (st *hostStream) Aborted(o core.Offered, ae *core.AbortError) {
	s := st.s
	s.smu.Lock()
	defer s.smu.Unlock()
	switch s.stepLocked(st, evAborted, false) {
	case actStash:
		st.abort, st.abortOf = ae, o
	case actAbort:
		st.writeAbortLocked(o, ae)
	}
}

// writeAbortLocked writes ABORT for ae, if any, when o is the stream's offer,
// unless the stream is severed: nobody is there to read it, or it no longer
// wants to.
func (st *hostStream) writeAbortLocked(o core.Offered, ae *core.AbortError) {
	if ae != nil && st.o == o && st.severed == "" {
		_ = st.b.write(wire.MsgAbort, 0, &wire.Abort{Performance: ae.Performance, Culprit: ae.Culprit.String(), Reason: ae.Reason})
	}
}

// Released writes the COMPLETE of a role held for delayed termination, on
// the goroutine that ended its performance (core.Handoff): one performance's
// held roles leave in one burst. A release that overtakes the role's ender on
// its way out of Finish is left for it (streamReleased).
func (st *hostStream) Released() { st.s.answer(st, st.raise(evReleased), nil) }

// run runs the cell the stream's owner got for a frame, an op's outcome or
// its OFFER-ACK: lose the role, or take the op in hand — post it, its
// completer the stream, or end the role at its BODY-DONE.
func (st *hostStream) run(a hostAct, lost string) {
	switch {
	case a == actLose:
		st.s.lose(st, lost)
	case a != actNext && a != actPost && a != actEnd:
	case st.b.op.typ == wire.MsgBodyDone:
		st.s.bodyDone(st, st.b.op)
	default:
		st.post()
	}
}

// Complete is the stream's posted op's outcome (core.Completer), on whoever
// committed or failed it: its OP-RESULT is written there, mapped to the
// client's message — a Select's index back to its own numbering.
func (st *hostStream) Complete(sel core.Selected, err error) {
	b := &st.b
	b.res = wire.OpResult{Err: wire.EncodeError(err)}
	switch {
	case err != nil:
	case b.op.typ == wire.MsgSelect:
		b.res = wire.OpResult{Index: b.op.branches[sel.Index].Index, Peer: sel.Peer.String(), Tag: sel.Tag, Val: sel.Val}
	case b.op.typ == wire.MsgRecvAny:
		b.res = wire.OpResult{Val: sel.Val, Peer: sel.Peer.String(), Tag: sel.Tag}
	case b.op.typ == wire.MsgRecv:
		b.res.Val = sel.Val
	}
	st.reply()
}

// reply writes the OP-RESULT of the op in hand and moves the stream on: to
// the backlog's next op, which it takes in hand, to idle, or — the result not
// delivered, or the stream severed — to losing the role, aborted with the
// sever's reason before its role ends, whoever aborts first, so a
// co-performer is never told the role finished.
func (st *hostStream) reply() {
	s, b := st.s, &st.b
	var lost string
	if b.write(wire.MsgOpResult, b.op.seq, &b.res) != nil {
		// The client cannot learn this op's outcome; the enrollment is
		// unrecoverable.
		lost = enrollerGone + ": operation result not delivered"
	}
	s.smu.Lock()
	a := s.stepLocked(st, evServed, lost != "")
	if lost = cmp.Or(lost, st.severed); a == actNext {
		b.op = <-b.opCh
	}
	s.smu.Unlock()
	st.run(a, lost)
}

// bodyDone ends the role at its BODY-DONE, on whoever serves the stream: the
// client's results are the role's, its error the body's.
func (s *hostSession) bodyDone(st *hostStream, op hostOp) {
	st.o.Ctx().Return(op.results...)
	s.end(st, op.err.Err())
}

// lose ends a playing role whose enroller is gone — severed, or a frame to it
// not delivered — on the goroutine that found it so and owns the stream: the
// performance is aborted blaming the role, which ends with errEnrollerLost.
func (s *hostSession) lose(st *hostStream, reason string) {
	st.o.Ctx().AbortPerformance(reason)
	s.end(st, errEnrollerLost)
}

// end ends the playing role of stream st, whose body returned bodyErr. A role
// held for delayed termination is answered by its Released, not here.
func (s *hostSession) end(st *hostStream, bodyErr error) {
	res, held, err := st.o.Finish(bodyErr)
	st.outcome(res, err)
	e := evEnded
	if held {
		e = evHeld
	}
	if a := st.raise(e); a == actCut { // severed while its body was ending
		s.cut(st)
	} else {
		s.answer(st, a, nil)
	}
}

// sever ends stream st's enrollment on behalf of a goroutine other than its
// owner — CANCEL, a flood, teardown — once it has been marked severed: a
// playing role's performance is aborted blaming it with the severed reason
// (an idle role is then ended here, one with an op posted by the op's
// completer, which the abort fails), the context ends, and a pending offer or
// a held role is cut.
func (s *hostSession) sever(st *hostStream) {
	s.smu.Lock()
	a, reason := s.stepLocked(st, evSevered, false), st.severed
	s.smu.Unlock()
	switch a {
	case actLose:
		s.lose(st, reason)
	case actAbortPerf:
		st.o.Ctx().AbortPerformance(reason)
		st.cancel()
	case actCancel:
		st.cancel()
	case actCut:
		st.cancel()
		s.cut(st)
	}
}

// cut ends a severed enrollment where it stands, its context ended: the core
// withdraws a pending offer or cuts a held role loose on a look, and the
// stream answers while the session lives (CANCEL's case) — the offer with
// the withdrawal's context.Canceled, the role with its COMPLETE. One the core
// settled or released first is left to its hand-off.
func (s *hostSession) cut(st *hostStream) {
	s.smu.Lock()
	o := st.o
	s.smu.Unlock()
	if _, err := o.Look(); errors.Is(err, context.Canceled) {
		s.answer(st, st.raise(evLooked), err)
	}
}

// outcome prepares the stream's terminal frame from an enrollment's outcome:
// DRAIN for an offer a draining target turned away, COMPLETE otherwise.
func (st *hostStream) outcome(res core.Result, err error) {
	st.term = wire.MsgComplete
	if errors.Is(err, core.ErrDraining) {
		st.term = wire.MsgDrain
	}
	st.cm = wire.Complete{
		Performance: res.Performance,
		Role:        cmp.Or(res.Role.String(), st.enroll.Role),
		Values:      res.Values,
		Err:         wire.EncodeError(err),
	}
}

// answer runs a cell that ends the enrollment: actAnswer answers the offer
// with err and, like actFinish, finishes it.
func (s *hostSession) answer(st *hostStream, a hostAct, err error) {
	switch a {
	case actAnswer:
		st.outcome(core.Result{}, err)
		fallthrough
	case actFinish:
		s.finish(st)
	}
}

// finish ends the stream's enrollment, once, whoever owns it: its step frees
// the slot, then the terminal frame is written — unless the session is over
// and nobody is there to read it — and the admission released. The hostStream
// then goes on the free list, emptied of the ops the enrollment left unserved,
// unless the enrollment was severed or the session is over: then its context
// ends here.
//
// The slot is freed *before* the terminal frame is written: a lock-step
// client may send its next ENROLL the moment it reads COMPLETE, and that
// ENROLL must find stream 0 free rather than be taken for a reuse of a live
// stream. A write failure means the connection died; the session's read loop
// notices on its next read (and on a resumable session the frame is retained
// and replayed, so the outcome is never lost to a blip).
func (s *hostSession) finish(st *hostStream) {
	h := s.h
	s.smu.Lock()
	a := s.stepLocked(st, evFinish, false)
	if a == actTerminal && s.streams[st.b.streamID] == st { // keyed on the stream's identity: a late call never evicts a successor
		s.setSlotLocked(st.b.streamID, nil)
	}
	write := !s.done
	s.smu.Unlock()
	if a != actTerminal {
		return
	}
	switch {
	case !write:
	case st.term == wire.MsgDrain:
		_ = st.b.write(wire.MsgDrain, 0, &wire.Drain{})
	case st.term == wire.MsgComplete:
		_ = st.b.write(wire.MsgComplete, 0, &st.cm)
	}
	h.activeStreams.Add(-1)
	if st.admitted {
		h.enrolling.Add(-1)
		h.enrollWG.Done()
	}
	s.smu.Lock()
	recycle := st.severed == "" && !s.done && len(s.free) < DefaultMaxStreamsPerConn
	if recycle {
		for len(st.b.opCh) > 0 {
			<-st.b.opCh
		}
		st.b.op, st.b.res, st.b.post = hostOp{}, wire.OpResult{}, core.Post{}
		clear(st.b.branches)
		st.o, st.abortOf, st.abort, st.enroll, st.cm, st.term, st.admitted = core.Offered{}, core.Offered{}, nil, wire.Enroll{}, wire.Complete{}, 0, false
		s.free = append(s.free, st)
	}
	s.smu.Unlock()
	if !recycle {
		st.cancel()
	}
}

// setSlotLocked is the one transition of a stream slot between live (st
// non-nil) and free; the transport's write batching follows the live count.
func (s *hostSession) setSlotLocked(stream uint64, st *hostStream) {
	if st != nil {
		s.streams[stream] = st
	} else {
		delete(s.streams, stream)
	}
	if s.cur != nil {
		s.cur.SetWriteBatching(len(s.streams) > 1)
	}
}

// openLocked takes a hostStream for the ENROLL m on stream — a finished one
// from the free list, or a new one — raises its ENROLL and puts it in the
// stream's slot, under smu: the reader's ENROLL, up to the offer.
func (s *hostSession) openLocked(stream uint64, m *wire.Enroll) *hostStream {
	var st *hostStream
	if n := len(s.free); n > 0 {
		st, s.free = s.free[n-1], s.free[:n-1]
	} else {
		st = &hostStream{s: s}
		st.b.opCh = make(chan hostOp, streamOpBacklog)
		st.ctx, st.cancel = context.WithCancel(s.h.baseCtx)
	}
	st.b.fw, st.b.streamID, st.enroll = s.fw, stream, *m
	s.stepLocked(st, evEnroll, false)
	s.setSlotLocked(stream, st)
	s.h.activeStreams.Add(1)
	return st
}

// markSevered looks stream's enrollment up and marks it severed for reason,
// for the caller to sever; nil means it already finished, or is being
// severed by another.
func (s *hostSession) markSevered(stream uint64, reason string) *hostStream {
	s.smu.Lock()
	defer s.smu.Unlock()
	st := s.streams[stream]
	if st == nil || st.severed != "" {
		return nil
	}
	st.severed = reason
	return st
}

// deliver hands op to stream's enrollment, on the reader. A missing stream
// raced with its terminal frame (cancel, abort), a severed one with whoever is
// ending it: the op is dropped, the enrollment already has its outcome. The
// op crosses by value, under the lock that found the stream: into the
// stream's hand, with an idle stream — the reader posts it, or ends the role
// at its BODY-DONE — or into the backlog. It reports a flood, the stream
// severed for it.
func (s *hostSession) deliver(stream uint64, op hostOp) (flooded bool) {
	e, a := evOp, actNone
	if op.typ == wire.MsgBodyDone {
		e = evBodyDone
	}
	s.smu.Lock()
	st := s.streams[stream]
	if st != nil {
		a = s.stepLocked(st, e, false)
	}
	switch a {
	case actPost, actEnd:
		st.b.op = op
	case actQueue:
		select {
		case st.b.opCh <- op:
		default:
			st.severed, flooded = "protocol violation: operation flood", true
		}
	}
	s.smu.Unlock()
	st.run(a, "")
	if flooded {
		s.sever(st)
	}
	return flooded
}

// preRead carries serveSession's already-read first frame into the loop.
type preRead struct {
	t           wire.MsgType
	stream, seq uint64
	m           any
}

// runConn runs the read loop binding one transport connection to its
// session. It returns when the transport is unusable; the deferred exit
// routes to park-or-teardown for transport failures and straight to
// teardown for protocol violations (a violating client is not a blip).
func (h *Host) runConn(s *hostSession, c *wire.Conn, first *preRead) {
	fatal := false
	defer func() {
		if fatal {
			s.teardown()
		} else {
			s.connBroken(c)
		}
	}()

	// violate answers a protocol violation and ends the connection, fatally.
	violate := func(format string, args ...any) bool {
		fatal = true
		msg := fmt.Sprintf(format, args...)
		h.logf("remote: %s: protocol violation: %s", c.RemoteAddr(), msg)
		_ = c.WriteFrame(wire.MsgError, 0, 0, &wire.ProtoError{Msg: msg})
		return false
	}

	handle := func(t wire.MsgType, stream, seq uint64, m any) bool {
		if t == wire.MsgHeartbeat {
			return true
		}
		if h.cfg.Faults != nil && h.cfg.Faults.DropConn() {
			return false
		}
		if stream != 0 && s.sess != nil {
			// Every stream frame counts toward the cumulative receipt state
			// the resume exchange reconciles (and, on cadence, acks) — while
			// this is still the session's connection. A RESUME supersedes it
			// and samples the count under the same lock, so a frame this
			// reader took before the old connection closed is either in the
			// count and handled here, or in neither and replayed: never both.
			var n uint64
			s.smu.Lock()
			current := s.cur == c
			if current {
				n = s.sess.CountRecv()
			}
			s.smu.Unlock()
			if !current {
				return false
			}
			s.sess.AckAt(n)
		}
		switch t {
		case wire.MsgAck:
			if s.sess == nil {
				return violate("ACK without a resumable session")
			}
			s.sess.PeerAck(m.(*wire.Ack).Count)
		case wire.MsgBye:
			// The client is done with the session for good (orderly close):
			// free parked-state eligibility now rather than holding the
			// grace window open for a peer that will never return.
			s.smu.Lock()
			s.byed = true
			s.smu.Unlock()
		case wire.MsgResume:
			return violate("RESUME after session establishment")
		case wire.MsgEnroll:
			if stream == 0 && !s.lockstep {
				return violate("ENROLL on reserved stream 0")
			}
			s.smu.Lock()
			if s.done {
				// Host shutdown raced the enroll; the conn is closing.
				s.smu.Unlock()
				return false
			}
			if _, exists := s.streams[stream]; exists {
				s.smu.Unlock()
				return violate("ENROLL reuses live stream %d", stream)
			}
			st := s.openLocked(stream, m.(*wire.Enroll))
			s.smu.Unlock()
			// Placed, or answered, here: an ENROLL on a draining host has its
			// DRAIN in the write buffer before this loop reads on, so when the
			// loop ends (Host.lastCall) the close that follows it flushes every
			// DRAIN owed.
			s.offer(st)
		case wire.MsgCancel:
			// The enroller withdrew this enrollment (its context ended). A
			// missing stream is the benign race with COMPLETE, not an error.
			if st := s.markSevered(stream, "enrollment canceled by enroller"); st != nil {
				s.sever(st)
			}
		case wire.MsgSend, wire.MsgSendAll, wire.MsgRecv, wire.MsgRecvAny,
			wire.MsgSelect, wire.MsgQuery, wire.MsgBodyDone:
			if s.deliver(stream, opOf(t, seq, m)) {
				return violate("operation flood")
			}
		default:
			return violate("unexpected %s", t)
		}
		return true
	}

	if first != nil && !handle(first.t, first.stream, first.seq, first.m) {
		return
	}
	for {
		t, stream, seq, m, err := c.NextFrame()
		if err != nil || !handle(t, stream, seq, m) {
			return
		}
	}
}
