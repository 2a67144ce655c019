package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ctxwatch"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/wire"
)

// This file is the client side of every connection to a host: concurrent
// enrollments share one pooled connection, each on its own stream ID with
// its own op-pipelining sequence space, under a single reader and a single
// heartbeat pump. A connection that negotiated v1 is the same machinery at
// its smallest — one stream at a time, one op at a time — so concurrent
// enrollments against a v1 host each take a connection of their own.

// DefaultMaxStreamsPerConn is the per-connection stream cap when
// EnrollerConfig.MaxStreamsPerConn is zero.
const DefaultMaxStreamsPerConn = 32

// streamEvent is one control-flow event delivered to an enrollment's
// conversation (as opposed to op results, which are matched to their waiting
// op by sequence ID): the type of a frame whose content the reader left in
// the stream (muxStream.ack, muxStream.cm), or the error that ends the
// conversation — the connection died, or the enrollment's context ended.
type streamEvent struct {
	typ wire.MsgType // MsgOfferAck | MsgDrain | MsgComplete
	err error
}

// streamEventsDropped counts events that found a stream's channel full. The
// channel is sized for every event an enrollment can have (see
// muxStream.events), so anything but zero is a hung enrollment's cause.
var streamEventsDropped = metrics.Get(metrics.RemoteStreamEventsDropped)

// muxConn is one *conversation* shared by up to maxStreams concurrent
// enrollments. A dedicated reader goroutine demuxes frames to streams; the
// heartbeat pump is shared by all of them. Without resumption (sess nil)
// the conversation is bound to one transport connection and dies with it.
// With resumption, the transport is replaceable: a connection loss detaches
// it, a reconnect goroutine redials with jittered backoff inside the host's
// advertised resume window, and a RESUME/RESUME-ACK exchange splices the
// fresh connection in with both sides replaying what the blip swallowed —
// the streams riding the conversation never notice.
type muxConn struct {
	c *wire.Conn // current transport; nil while detached (resumable only)
	// fw is where stream frames go, fixed at creation: the session when
	// resumable (it retains them for replay and swallows transport errors —
	// the reader drives recovery), else the conversation's only connection,
	// where a write after its death fails or is never flushed: the death
	// itself is what the streams hear of (fatal).
	fw   frameWriter
	hs   *hostState
	stop chan struct{}
	once sync.Once

	maxStreams int
	// lockstep marks a conversation that negotiated v1, whose frames carry
	// no stream/seq envelope: it runs one stream at a time (maxStreams 1) as
	// stream 0 with every op as seq 0, so writes have nothing to strip and
	// the ordinary lookups attribute each inbound frame to the sole stream
	// and its sole pending op.
	lockstep bool

	// Resumption state, fixed at creation: nil sess means the handshake did
	// not negotiate resumption and every transport failure is fatal, exactly
	// the pre-resumption behavior.
	sess         *wire.Session
	resumeWindow time.Duration
	redial       func(ctx context.Context) (*wire.Conn, error)
	faults       NetFaults

	mu      sync.Mutex
	streams map[uint64]*muxStream
	// free holds the streams of finished enrollments for openStream to hand
	// out again. A stream is live or free, never both, so free never holds
	// more than maxStreams. What keeps a frame for a finished stream away from
	// the enrollment that inherits its muxStream: the reader looks a stream up
	// and delivers to it under mu (dispatch), and closeStream takes it out of
	// streams under mu before it resets it.
	free     []*muxStream
	nextID   uint64
	reserved int // slots claimed by enrollments that haven't opened yet
	retired  bool
	dead     bool
	deadErr  error
}

// cut severs the current transport out from under the conversation without
// telling anyone — the chaos harness's client-side blip. The read loop
// discovers the break and drives resume (resumable) or teardown (not).
func (mc *muxConn) cut() {
	mc.mu.Lock()
	c := mc.c
	mc.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// streamWatch watches the contexts of the client's enrollments in flight, for
// every enroller of the process: a context shared by enrollments, whether of
// one enroller or of several (a bloc's members, one per host), is watched
// once, and one that is not costs what a context.AfterFunc of its own would.
// It belongs to no enroller, so no context it watches keeps one reachable.
var streamWatch ctxwatch.Watch

// withdraw runs when st's enrollment context ends (streamWatch), and
// is the only thing that watches that context: it ends the enrollment's
// waits and tells the host. On a shared connection the host is told with a
// stream-addressed CANCEL, which it answers with the stream's terminal frame;
// the connection stays up for its other streams. A lock-step conversation has
// no such frame and withdraws the way v1 always has, by severing its
// dedicated connection — unless the stream already finished, when the
// connection may be serving a successor. The context's error goes where a
// connection's death goes (fatal): onto the stream, for ops that come later;
// to the ops in flight; and to the conversation's event channel.
func (mc *muxConn) withdraw(st *muxStream) {
	err := st.ctx.Err()
	if !mc.lockstep {
		// The waits end first, then the CANCEL goes out behind them.
		st.fatal(err)
		_ = mc.fw.WriteFrame(wire.MsgCancel, st.id, 0, &wire.Cancel{})
		return
	}
	mc.mu.Lock()
	live := mc.streams[st.id] == st
	mc.mu.Unlock()
	if live {
		mc.fail(fmt.Errorf("%w: enrollment withdrawn", ErrConnLost))
	}
	st.fatal(err)
}

// muxStream is one enrollment's lane on a muxConn: its op-pipelining state
// (pending results keyed by sequence ID) and its control-event channel. It
// outlives the enrollment: closeStream resets it for the next one.
type muxStream struct {
	id uint64
	mc *muxConn
	// events holds every event one enrollment can have, each posted at most
	// once: OFFER-ACK, one terminal frame, the connection's death, the
	// context's end (see maxStreamEvents). The conversation blocks on nothing
	// else, so a dropped event would hang it: event counts drops.
	events chan streamEvent
	// entry adds the stream to streamWatch, its function mc.withdraw
	// bound to this stream, on a goroutine of its own as an AfterFunc's was;
	// ctx is the enrollment's context, whose end it reports.
	entry ctxwatch.Entry
	ctx   context.Context
	// enroll and bodyDone are the enrollment's two outbound messages, rctx
	// the Ctx its body runs against.
	enroll   wire.Enroll
	bodyDone wire.BodyDone
	rctx     remoteCtx
	// ack and cm are the host's OFFER-ACK and COMPLETE, copied out of the
	// reader's structs before the event that announces them is posted. phase
	// admits one of each (DRAIN ends too); like the stream table it is the
	// reader's, under mc.mu, and step alone writes it.
	ack   wire.OfferAck
	cm    wire.Complete
	phase clientPhase

	mu      sync.Mutex
	pending map[uint64]chan opOutcome
	// idle is a slot no op holds, its channel empty and unregistered: a body
	// runs one op at a time, so one slot serves them all.
	idle     *opSlot
	nextSeq  uint64
	abortErr error // performance aborted between ops (ABORT frame)
	failed   error // connection died, or the enrollment's context ended
}

// clientPhase is where a client stream's enrollment stands, as its
// conversation's frames have moved it.
type clientPhase uint8

const (
	clientEnded   clientPhase = iota // a terminal frame came, or no enrollment has held the muxStream yet
	clientOffered                    // ENROLL is out: awaiting OFFER-ACK or a refusal
	clientAcked                      // OFFER-ACK came: the body runs
)

// step is the client's transition table, the only writer of a stream's
// phase: it moves the phase for event t — ENROLL going out, on a new or a
// recycled muxStream, or OFFER-ACK or a terminal frame (COMPLETE, DRAIN)
// coming in — and reports whether the enrollment acts on it. A second
// OFFER-ACK or terminal frame is ignored.
func (st *muxStream) step(t wire.MsgType) (act bool) {
	switch p := st.phase; {
	case t == wire.MsgEnroll:
		st.phase = clientOffered
	case t == wire.MsgOfferAck && p == clientOffered:
		st.phase = clientAcked
	case t == wire.MsgOfferAck || p == clientEnded:
		return false
	default:
		st.phase = clientEnded
	}
	return true
}

// maxStreamEvents is the capacity of muxStream.events.
const maxStreamEvents = 4

type opOutcome struct {
	res wire.OpResult
	err error
}

// opSlot is what an operation holds while in flight: the channel its outcome
// arrives on, the sequence ID it is registered under, and the request structs
// the common ops are encoded from. The stream keeps one (muxStream.idle); an
// op that finds it taken — a body running ops concurrently — makes its own.
type opSlot struct {
	ch      chan opOutcome
	seq     uint64
	send    wire.Send
	sendAll wire.SendAll // Tos keeps its storage from op to op
	recv    wire.Recv
	sel     wire.Select // Branches likewise
}

// tryReserve claims a stream slot, or reports the connection
// full/retired/dead. A detached conversation (mid-reconnect) refuses new
// enrollments too: they are better served by a fresh dial than by queueing
// behind a transport that may never come back.
func (mc *muxConn) tryReserve() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.dead || mc.retired || mc.c == nil || len(mc.streams)+mc.reserved >= mc.maxStreams {
		return false
	}
	mc.reserved++
	return true
}

// openStream converts a reservation into a live stream, on a muxStream a
// finished enrollment left behind when there is one. Stream IDs are never
// reused on a multiplexed connection, so frames racing a completed stream
// find no stream under their ID, whoever has its muxStream now. (A lock-step
// conversation reuses stream 0, safely: nothing follows a stream's terminal
// frame.)
func (mc *muxConn) openStream() (*muxStream, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.reserved--
	if mc.dead {
		return nil, mc.deadErr
	}
	if !mc.lockstep {
		mc.nextID++
	}
	var st *muxStream
	if n := len(mc.free); n > 0 {
		st, mc.free = mc.free[n-1], mc.free[:n-1]
	} else {
		st = &muxStream{
			mc:      mc,
			events:  make(chan streamEvent, maxStreamEvents),
			pending: make(map[uint64]chan opOutcome),
		}
		st.entry.Func = func() { go mc.withdraw(st) } // a wedged socket holds up no other stream's
	}
	st.id = mc.nextID
	st.step(wire.MsgEnroll)
	mc.streams[st.id] = st
	if mc.c != nil {
		mc.c.SetWriteBatching(len(mc.streams) > 1)
	}
	return st, nil
}

// closeStream removes a finished stream; late frames for it are dropped by
// the reader. The caller passes recycle only when nothing of the enrollment
// can still reach st (see converse); the stream is then emptied of what the
// enrollment left behind and kept for the next one. A retired connection is
// torn down when its last stream closes.
func (mc *muxConn) closeStream(st *muxStream, recycle bool) {
	mc.mu.Lock()
	delete(mc.streams, st.id)
	if recycle && !mc.dead {
		st.mu.Lock()
		for len(st.events) > 0 {
			<-st.events
		}
		clear(st.pending)
		st.nextSeq, st.abortErr, st.failed = 0, nil, nil
		// rctx keeps its stream and context: a body that kept its Ctx past its
		// return finds what it always found, a live stream to fail on.
		st.enroll, st.bodyDone, st.rctx.ParamBag = wire.Enroll{}, wire.BodyDone{}, core.ParamBag{}
		st.ack, st.cm = wire.OfferAck{}, wire.Complete{}
		if sl := st.idle; sl != nil {
			sl.send.Val, sl.sendAll.Val = nil, nil
			clear(sl.sel.Branches)
		}
		st.mu.Unlock()
		mc.free = append(mc.free, st)
	}
	if mc.c != nil {
		mc.c.SetWriteBatching(len(mc.streams) > 1)
	}
	reap := mc.retired && len(mc.streams)+mc.reserved == 0
	mc.mu.Unlock()
	if reap {
		mc.fail(core.ErrClosed)
	}
}

// retire drains the connection out: no new stream reservations are
// accepted, and the connection is failed once its last stream closes. A
// connection with no active streams fails immediately; enrollments in
// flight keep their streams and finish (or fail) on their own.
func (mc *muxConn) retire() {
	mc.mu.Lock()
	mc.retired = true
	idle := len(mc.streams)+mc.reserved == 0
	mc.mu.Unlock()
	if idle {
		mc.fail(core.ErrClosed)
	}
}

// active reports live + reserved stream slots.
func (mc *muxConn) active() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.streams) + mc.reserved
}

// fail tears the conversation down for good: every stream's pending ops and
// event loops learn the error, the heartbeat stops, and the pool forgets
// the connection. On a resumable conversation a BYE goes out first (best
// effort) so the host frees its parked/live session state immediately
// instead of holding the grace window open for a peer that will never
// return. Idempotent.
func (mc *muxConn) fail(err error) {
	mc.once.Do(func() {
		mc.mu.Lock()
		mc.dead = true
		mc.deadErr = err
		c := mc.c
		mc.c = nil
		streams := make([]*muxStream, 0, len(mc.streams))
		for _, st := range mc.streams {
			streams = append(streams, st)
		}
		mc.mu.Unlock()
		close(mc.stop)
		if mc.sess != nil {
			mc.sess.Detach()
			if c != nil {
				_ = c.WriteFrame(wire.MsgBye, 0, 0, &wire.Bye{})
			}
		}
		if c != nil {
			c.Close()
		}
		mc.hs.removeMux(mc)
		for _, st := range streams {
			st.fatal(err)
		}
	})
}

// lost is the exit path for a transport failure on c: fatal without
// resumption; with it, detach and hand off to the reconnect goroutine —
// the streams stay up, their pending ops keep waiting, and the blip either
// heals inside the resume window or hardens into err. Duplicate reports
// for the same (or an already-replaced) transport are ignored.
func (mc *muxConn) lost(c *wire.Conn, err error) {
	if mc.sess == nil {
		mc.fail(err)
		return
	}
	mc.mu.Lock()
	if mc.dead || mc.c != c {
		mc.mu.Unlock()
		return
	}
	mc.c = nil
	idle := len(mc.streams)+mc.reserved == 0
	retired := mc.retired
	doomed := mc.sess.Doomed()
	mc.mu.Unlock()
	mc.sess.Detach()
	c.Close()
	if idle || retired || doomed {
		// Nothing worth reconnecting for (or the ring overflowed — replay
		// can no longer be exactly-once): degrade to the abort path.
		mc.fail(err)
		return
	}
	go mc.reconnect(err)
}

// reconnect redials with jittered backoff inside the host's resume window
// and splices the session onto the fresh transport. If the window closes,
// the enroller shut down, or the host refuses the RESUME, the transport
// failure hardens into a session failure: fail(origErr), which is exactly
// the pre-resumption outcome for the blip.
func (mc *muxConn) reconnect(origErr error) {
	deadline := time.Now().Add(mc.resumeWindow)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const baseBackoff = 5 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			w := baseBackoff << min(attempt, 6) // capped at 320ms
			d := time.Duration(rng.Int63n(int64(w))) + 1
			select {
			case <-mc.stop:
				return
			case <-time.After(d):
			}
		}
		if time.Now().After(deadline) {
			mc.fail(origErr)
			return
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		c, err := mc.redial(ctx)
		cancel()
		if err != nil {
			if errors.Is(err, core.ErrClosed) {
				// Enroller closed mid-redial: terminal, and no dial goroutine
				// left behind.
				mc.fail(origErr)
				return
			}
			continue
		}
		if done := mc.resume(c, origErr); done {
			return
		}
		c.Close()
	}
}

// resume runs the RESUME/RESUME-ACK exchange on a freshly handshaken
// connection and attaches it. done=false means a transport-level failure
// worth retrying on yet another connection; terminal outcomes (refusal,
// unsatisfiable receipt state, success) return true.
func (mc *muxConn) resume(c *wire.Conn, origErr error) (done bool) {
	if c.Version() < 2 {
		// The host's protocol ceiling changed under us (restart with a new
		// config): the session cannot continue.
		mc.fail(origErr)
		return true
	}
	if err := c.WriteFrame(wire.MsgResume, 0, 0, &wire.Resume{
		Token:     mc.sess.Token(),
		RecvCount: mc.sess.RecvCount(),
	}); err != nil {
		return false
	}
	// The ack must be the first frame back; bound the wait so a hung host
	// does not pin the reconnect goroutine past the window.
	c.SetReadTimeout(mc.resumeWindow)
	t, _, _, m, err := c.ReadFrame()
	if err != nil {
		return false
	}
	c.SetReadTimeout(0)
	switch t {
	case wire.MsgError:
		// The host refused: session unknown (restart), expired, or torn
		// down. Terminal — surface the original break.
		pe := m.(*wire.ProtoError)
		mc.fail(fmt.Errorf("%w: %s (after: %v)", ErrConnLost, pe.Msg, origErr))
		return true
	case wire.MsgResumeAck:
	default:
		return false
	}
	if err := mc.sess.Resume(c, m.(*wire.ResumeAck).RecvCount, nil); err != nil {
		mc.fail(origErr) // doomed, or a count that cannot be honoured
		return true
	}
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		mc.sess.Detach()
		c.Close()
		return true
	}
	mc.c = c
	c.SetWriteBatching(len(mc.streams) > 1)
	mc.mu.Unlock()
	go mc.readLoop(c)
	return true
}

// readLoop is one transport's single reader: it demuxes every inbound
// frame to its stream until the transport dies. A resumable conversation
// starts a fresh readLoop per transport.
func (mc *muxConn) readLoop(c *wire.Conn) {
	for {
		t, stream, seq, m, err := c.NextFrame()
		if err != nil {
			mc.lost(c, fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		if stream == 0 {
			switch t {
			case wire.MsgError:
				// The host names a protocol violation before severing: fatal
				// even with resumption — a violating conversation is not a
				// blip, and the host has already torn its side down.
				pe := m.(*wire.ProtoError)
				mc.fail(fmt.Errorf("script/remote: host error: %s", pe.Msg))
				return
			case wire.MsgAck:
				if mc.sess != nil {
					mc.sess.PeerAck(m.(*wire.Ack).Count)
				}
				continue
			}
			if !mc.lockstep {
				continue
			}
		}
		if mc.sess != nil {
			// Count (and on cadence ack) every stream frame received: this
			// is the receipt state a resume exchange reconciles.
			mc.sess.MaybeAck()
		}
		mc.dispatch(t, stream, seq, m)
	}
}

// dispatch hands one inbound frame to its stream. Lookup and delivery share
// one critical section with closeStream: a frame that finds no stream raced
// with it and is dropped (the enrollment has its outcome), and a frame that
// finds one cannot be overtaken by the stream's reuse. Delivery never blocks.
func (mc *muxConn) dispatch(t wire.MsgType, stream, seq uint64, m any) {
	mc.mu.Lock()
	if st := mc.streams[stream]; st != nil {
		st.deliver(t, seq, m)
	}
	mc.mu.Unlock()
}

// heartbeat is the conversation's shared liveness pump — one per
// conversation (not per transport), however many enrollments share it.
func (mc *muxConn) heartbeat(interval time.Duration, faults NetFaults) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-mc.stop:
			return
		case <-t.C:
			if faults != nil {
				if d := faults.StallHeartbeat(); d > 0 {
					select {
					case <-mc.stop:
						return
					case <-time.After(d):
					}
				}
			}
			mc.mu.Lock()
			c := mc.c
			mc.mu.Unlock()
			if c == nil {
				continue // detached; the reconnect goroutine is on it
			}
			if c.WriteFrame(wire.MsgHeartbeat, 0, 0, &wire.Heartbeat{}) != nil {
				mc.lost(c, fmt.Errorf("%w: heartbeat write failed", ErrConnLost))
				if mc.sess == nil {
					return
				}
			}
		}
	}
}

// errOpInFlight fails the ops a terminal frame finds still waiting.
var errOpInFlight = fmt.Errorf("%w: stream completed with operation in flight", ErrConnLost)

// deliver routes one inbound frame to the stream's waiting op or its event
// channel. Called only from the connection's reader, through dispatch. m is
// the reader's struct for the frame's type, gone with the next frame: what
// the stream keeps of it is copied here, by value.
func (st *muxStream) deliver(t wire.MsgType, seq uint64, m any) {
	switch t {
	case wire.MsgOpResult:
		st.mu.Lock()
		ch := st.pending[seq]
		delete(st.pending, seq)
		st.mu.Unlock()
		if ch != nil {
			ch <- opOutcome{res: *(m.(*wire.OpResult))}
		}
	case wire.MsgAbort:
		// Performance aborted between ops: subsequent ops fail locally, as
		// in the local runtime. In-flight ops still get their own results.
		a := m.(*wire.Abort)
		st.mu.Lock()
		if st.abortErr == nil {
			st.abortErr = (&wire.ErrInfo{
				Code:        wire.CodeAborted,
				Performance: a.Performance,
				Culprit:     a.Culprit,
				Reason:      a.Reason,
			}).Err()
		}
		st.mu.Unlock()
	case wire.MsgOfferAck:
		if st.step(t) {
			st.ack = *(m.(*wire.OfferAck))
			st.event(streamEvent{typ: t})
		}
	case wire.MsgComplete, wire.MsgDrain:
		// Terminal, once. Release any still-pending ops first (a cancel or
		// abort race can terminate the stream with an op in flight), so the
		// body unwinds before the conversation takes the event.
		if !st.step(t) {
			return
		}
		termErr := core.ErrDraining
		if cm, ok := m.(*wire.Complete); ok {
			st.cm = *cm
			if termErr = cm.Err.Err(); termErr == nil {
				termErr = errOpInFlight
			}
		}
		st.failPending(termErr)
		st.event(streamEvent{typ: t})
	}
}

// event delivers a control event; the channel's capacity covers every event
// an enrollment can have, so this never blocks the reader and never drops.
// Should a change add an event without raising maxStreamEvents, the drop is
// counted rather than silent.
func (st *muxStream) event(ev streamEvent) {
	select {
	case st.events <- ev:
	default:
		streamEventsDropped.Inc()
	}
}

// failPending releases every op waiter with err. A registered channel is
// empty and has this one sender, so the sends never block.
func (st *muxStream) failPending(err error) {
	st.mu.Lock()
	for seq, ch := range st.pending {
		ch <- opOutcome{err: err}
		delete(st.pending, seq)
	}
	st.mu.Unlock()
}

// fatal ends the enrollment's waits with err — the connection died, or the
// enrollment's context ended: ops that register from here on fail with it
// (failed is read under the lock they register under), the ops in flight get
// it, then the conversation.
func (st *muxStream) fatal(err error) {
	st.mu.Lock()
	st.failed = err
	st.mu.Unlock()
	st.failPending(err)
	st.event(streamEvent{err: err})
}

// begin opens one pipelined operation exchange: it claims a slot — the
// stream's idle one when no other op holds it — and registers it under the
// next sequence ID. The caller builds its request (in the slot, if it is one
// the slot has a struct for) and passes both to finish. An aborted
// performance, a dead connection or an ended context fails the op here.
func (st *muxStream) begin() (*opSlot, error) {
	if f := st.mc.faults; f != nil && f.CutConn() {
		// Injected client-side blip: sever the transport mid-op, telling no
		// one. The read loop discovers the break; with resumption this op
		// must still complete exactly once, without it the enrollment fails
		// with today's taxonomy.
		st.mc.cut()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := cmp.Or(st.abortErr, st.failed); err != nil {
		return nil, err
	}
	sl := st.idle
	if sl == nil {
		sl = &opSlot{ch: make(chan opOutcome, 1)}
	}
	st.idle = nil
	if !st.mc.lockstep {
		st.nextSeq++
	}
	sl.seq = st.nextSeq
	st.pending[sl.seq] = sl.ch
	return sl, nil
}

// finish writes the request of an exchange begin opened and blocks for the
// matched OP-RESULT, on the slot's channel and nothing else: whatever ends
// the wait early — the connection's death, the context's end through
// withdraw, a terminal frame — reaches a registered op as its outcome.
// Multiple ops may be in flight on one stream; results match by sequence,
// not arrival order. Once the outcome is taken the slot is known empty and
// unregistered, and becomes the stream's idle one.
func (st *muxStream) finish(sl *opSlot, t wire.MsgType, req any) (wire.OpResult, error) {
	if err := st.mc.fw.WriteFrame(t, st.id, sl.seq, req); err != nil {
		st.mc.fail(fmt.Errorf("%w: %v", ErrConnLost, err)) // this op's outcome, with every other's
	}
	out := <-sl.ch
	st.mu.Lock()
	st.idle = sl
	st.mu.Unlock()
	return out.res, out.err
}

// isClosed reports whether Close has been called.
func (e *Enroller) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// reserveMux finds a pooled connection with a free stream slot, compacting
// dead entries on the way.
func (hs *hostState) reserveMux() *muxConn {
	hs.muxMu.Lock()
	defer hs.muxMu.Unlock()
	live := hs.muxes[:0]
	var found *muxConn
	for _, mc := range hs.muxes {
		mc.mu.Lock()
		dead := mc.dead
		mc.mu.Unlock()
		if dead {
			continue
		}
		live = append(live, mc)
		if found == nil && mc.tryReserve() {
			found = mc
		}
	}
	hs.muxes = live
	return found
}

func (hs *hostState) addMux(mc *muxConn) {
	hs.muxMu.Lock()
	hs.muxes = append(hs.muxes, mc)
	hs.muxMu.Unlock()
	if hs.gone.Load() {
		// Raced with retireMuxes: the host left the set (or the enroller
		// closed) between the dial and the pool insert.
		mc.retire()
	}
}

func (hs *hostState) removeMux(mc *muxConn) {
	hs.muxMu.Lock()
	live := hs.muxes[:0]
	for _, m := range hs.muxes {
		if m != mc {
			live = append(live, m)
		}
	}
	hs.muxes = live
	hs.muxMu.Unlock()
}

// retireMuxes drains every pooled connection: idle ones are failed
// immediately, ones with enrollments in flight are failed when their last
// stream closes. Used when a host leaves the registry view and by
// Enroller.Close — both promise that in-flight enrollments keep their
// connections.
func (hs *hostState) retireMuxes() {
	hs.gone.Store(true)
	hs.muxMu.Lock()
	muxes := append([]*muxConn(nil), hs.muxes...)
	hs.muxMu.Unlock()
	for _, mc := range muxes {
		mc.retire()
	}
}

// acquireMux claims a stream slot against hs: on a pooled conversation with
// room, else on a freshly dialed one, whichever protocol version the host
// negotiates.
func (e *Enroller) acquireMux(ctx context.Context, hs *hostState) (*muxConn, error) {
	if e.isClosed() {
		return nil, core.ErrClosed
	}
	// Existing capacity first: no dial, no lock beyond the pool scan.
	if mc := hs.reserveMux(); mc != nil {
		return mc, nil
	}
	// Serialize dials per host: a concurrent burst of enrollments (a
	// 64-role cast) must not each dial — the first dial provides stream
	// capacity the rest share.
	hs.dialMu.Lock()
	defer hs.dialMu.Unlock()
	if mc := hs.reserveMux(); mc != nil {
		return mc, nil
	}
	c, ack, err := e.dialRaw(ctx, hs.addr)
	if err != nil {
		return nil, err
	}
	mc := &muxConn{
		c:          c,
		fw:         c,
		hs:         hs,
		stop:       make(chan struct{}),
		maxStreams: e.cfg.MaxStreamsPerConn,
		lockstep:   c.Version() < 2,
		streams:    make(map[uint64]*muxStream),
		faults:     e.cfg.Faults,
	}
	if mc.lockstep {
		mc.maxStreams = 1
	}
	if ack.ResumeToken != "" && ack.ResumeWindowMS > 0 {
		// The host granted resumption: wrap the transport in a session and
		// arm the redial path. The closure re-checks the enroller's closed
		// flag so a Close racing a reconnect terminates the redial loop
		// instead of leaking it (and the host's parked session with it).
		mc.sess = wire.NewSession(c, ack.ResumeToken, 0)
		mc.fw = mc.sess
		mc.resumeWindow = time.Duration(ack.ResumeWindowMS) * time.Millisecond
		mc.redial = func(rctx context.Context) (*wire.Conn, error) {
			if e.isClosed() {
				return nil, core.ErrClosed
			}
			rc, _, rerr := e.dialRaw(rctx, hs.addr)
			return rc, rerr
		}
	}
	mc.reserved++ // the dialing enrollment's own slot
	hs.addMux(mc)
	go mc.readLoop(c)
	go mc.heartbeat(effectiveHeartbeat(e.cfg.HeartbeatInterval, ack.HeartbeatTimeoutMS), e.cfg.Faults)
	return mc, nil
}

// effectiveHeartbeat guards against the classic config footgun: a client
// heartbeat interval at or above the host's silence bound makes every
// healthy idle connection look severed. The host advertises its timeout in
// the handshake (0 = host predates the advert, negative = timeout
// disabled); a too-slow interval is clamped to a third of it, so one
// lost-in-transit heartbeat never costs the connection.
func effectiveHeartbeat(interval time.Duration, hostTimeoutMS int64) time.Duration {
	if hostTimeoutMS <= 0 {
		return interval
	}
	timeout := time.Duration(hostTimeoutMS) * time.Millisecond
	if interval < timeout {
		return interval
	}
	return timeout / 3 // at least 333µs: the timeout is whole milliseconds
}

// dialRaw establishes and handshakes one connection, negotiating up to
// cfg.MaxProtocolVersion; v2-capable dials ask for session resumption
// (granted in the ack only when the host has a resume window configured).
// DialTimeout bounds
// the TCP connect and the handshake together, and ctx ending closes the
// socket under either: a host that accepts and then says nothing must not
// hold the caller — and hostState.dialMu, so every other enrollment to that
// host — past its bounds. Failures wrap ErrDialFailed — except an overload
// rejection of the handshake itself (the host's connection cap), which
// surfaces as the *core.OverloadError it is.
func (e *Enroller) dialRaw(ctx context.Context, addr string) (*wire.Conn, wire.HelloAck, error) {
	fail := func(err error) (*wire.Conn, wire.HelloAck, error) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, wire.HelloAck{}, cerr
		}
		return nil, wire.HelloAck{}, fmt.Errorf("%w: %s: %v", ErrDialFailed, addr, err)
	}
	d := net.Dialer{Deadline: time.Now().Add(e.cfg.DialTimeout)}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fail(err)
	}
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	_ = nc.SetDeadline(d.Deadline) // fails only on a socket already closed, which the handshake then reports
	c := wire.NewConn(nc)
	if e.cfg.Faults != nil {
		c.SetFrameDelay(e.cfg.Faults.FrameDelay)
	}
	ack, err := wire.ClientHandshakeV(c, e.cfg.Script, e.cfg.MaxProtocolVersion)
	if !stop() && err == nil {
		err = ctx.Err() // ctx ended as the ack arrived, and its AfterFunc closed the socket
	}
	if err != nil {
		c.Close()
		if errors.Is(err, core.ErrOverloaded) {
			return nil, wire.HelloAck{}, err
		}
		return fail(err)
	}
	_ = nc.SetDeadline(time.Time{}) // likewise: the read loop finds a dead socket
	return c, ack, nil
}
