package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/wire"
)

// Process-wide shed counters, mirroring the per-Host ones in HostStats so a
// metrics scrape sees overload pressure without enumerating hosts.
var (
	shedConnsTotal   = metrics.Get(metrics.RemoteShedConns)
	shedEnrollsTotal = metrics.Get(metrics.RemoteShedEnrollments)
	sessionsParked   = metrics.Get(metrics.SessionsParked)
	sessionsResumed  = metrics.Get(metrics.SessionsResumed)
	sessionsExpired  = metrics.Get(metrics.SessionsExpired)
	streamViolations = metrics.Get(metrics.RemoteStreamViolations)
)

// HostConfig configures a Host.
type HostConfig struct {
	// HeartbeatTimeout bounds how long a connection may stay silent before
	// the host presumes the enroller lost and aborts its performance. Any
	// frame (heartbeats included) resets the clock. 0 means the default of
	// 15 seconds; a negative value disables the bound.
	HeartbeatTimeout time.Duration
	// WriteTimeout bounds each write to a client's socket, which only the
	// connection's flusher makes (0 = unbounded). A client that stops reading
	// mid-performance is indistinguishable from a dead one; the write timeout
	// turns it into the disconnect path.
	WriteTimeout time.Duration

	// MaxConns caps concurrently-served client connections (0 = unlimited).
	// A connection accepted over the cap is rejected at handshake time with
	// an OVERLOADED frame — before any protocol state is built for it — and
	// closed.
	MaxConns int
	// MaxEnrollments caps enrollments concurrently admitted into the target
	// (pending, performing, or held; 0 = unlimited). An ENROLL over the cap
	// is answered with ErrOverloaded and the connection stays usable.
	MaxEnrollments int
	// MaxPendingOffers caps the target's pending (offered-but-unmatched)
	// enrollment backlog (0 = unlimited). It applies only to targets that
	// report it (core.Instance, script.Pool — anything with a
	// PendingOffers() int method); an ENROLL arriving while the backlog is
	// at the cap is shed with ErrOverloaded.
	MaxPendingOffers int
	// RetryAfter is the backoff hint carried by overload rejections
	// (0 = DefaultRetryAfter, negative = no hint). Shedding never touches
	// admitted work: an in-flight performance is never aborted by the
	// admission layer.
	RetryAfter time.Duration

	// MaxProtocolVersion caps the wire protocol version the host will
	// negotiate (0 = wire.MaxVersion). Setting 1 pins the host to the v1
	// JSON protocol — useful for staged rollouts and for testing clients'
	// fallback path.
	MaxProtocolVersion int

	// ResumeWindow, when positive, enables session resumption on v2
	// connections: a connection that dies with live streams parks them for
	// this grace window instead of aborting their performances, and a
	// client redialing with the session token within the window re-attaches
	// invisibly (both sides replay unacked frames). 0 disables — every
	// connection loss aborts exactly as before resumption existed.
	ResumeWindow time.Duration

	// Faults, when non-nil, injects network faults (chaos testing).
	Faults NetFaults
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// DefaultHeartbeatTimeout is the host's silence bound when
// HostConfig.HeartbeatTimeout is zero.
const DefaultHeartbeatTimeout = 15 * time.Second

// DefaultRetryAfter is the backoff hint sent with overload rejections when
// HostConfig.RetryAfter is zero.
const DefaultRetryAfter = 50 * time.Millisecond

// pendingOffersReporter is the optional Target facet the pending-offer cap
// needs: a contention-free count of offered-but-unmatched enrollments.
// *core.Instance and script.Pool both implement it.
type pendingOffersReporter interface {
	PendingOffers() int
}

// Host serves a script target to remote enrollers. It owns only the
// network side: the caller keeps ownership of the target and its
// lifecycle, except that Host.Drain delegates to Target.Drain.
type Host struct {
	target Target
	script string
	cfg    HostConfig

	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*wire.Conn]struct{}
	closed bool
	// draining is set by Drain; from then on ENROLLs answer DRAIN at once.
	draining atomic.Bool

	// sessions indexes every live resumable v2 session by its token —
	// attached and parked alike, so a RESUME can adopt a session even when
	// the client noticed the break before the host did. Guarded by mu.
	sessions map[string]*hostSession

	// pendingOf is the target's pending-offer counter, nil when the target
	// does not report one (MaxPendingOffers is then inert).
	pendingOf pendingOffersReporter

	// enrolling counts enrollments currently admitted into the target;
	// shedConns / shedEnrolls count admission-control rejections.
	enrolling   atomic.Int64
	shedConns   atomic.Uint64
	shedEnrolls atomic.Uint64
	// connsV1/connsV2 count accepted connections by negotiated protocol
	// version; activeStreams counts live enrollment conversations.
	connsV1       atomic.Uint64
	connsV2       atomic.Uint64
	activeStreams atomic.Int64

	connWG   sync.WaitGroup // connection handlers
	enrollWG sync.WaitGroup // admitted enrollments, ENROLL to terminal frame (Drain waits on it)
}

// HostStats is a snapshot of the host's admission-control and connection
// counters.
type HostStats struct {
	// Conns is the number of connections currently served.
	Conns int
	// Enrolling is the number of enrollments currently admitted into the
	// target (pending, performing, or held).
	Enrolling int
	// ShedConns counts connections rejected at the connection cap.
	ShedConns uint64
	// ShedEnrollments counts enrollments shed with ErrOverloaded.
	ShedEnrollments uint64
	// ActiveStreams is the number of live enrollment conversations across
	// all connections: every stream of a v2 connection, and the one
	// conversation a v1 connection carries at a time.
	ActiveStreams int
	// ConnsV1 / ConnsV2 count connections accepted since the host started,
	// by negotiated wire protocol version.
	ConnsV1 uint64
	ConnsV2 uint64
	// Sessions is the number of resumable v2 sessions currently registered,
	// attached and parked alike.
	Sessions int
}

// Stats returns a snapshot of the host's counters. Each field is read
// atomically, but the snapshot as a whole is not a consistent cut: the
// counters keep moving while it is taken, so cross-field invariants (for
// example Conns >= ActiveStreams's connections) may be transiently violated.
// That is the usual contract for a metrics scrape.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	conns := len(h.conns)
	sessions := len(h.sessions)
	h.mu.Unlock()
	return HostStats{
		Conns:           conns,
		Sessions:        sessions,
		Enrolling:       int(h.enrolling.Load()),
		ShedConns:       h.shedConns.Load(),
		ShedEnrollments: h.shedEnrolls.Load(),
		ActiveStreams:   int(h.activeStreams.Load()),
		ConnsV1:         h.connsV1.Load(),
		ConnsV2:         h.connsV2.Load(),
	}
}

// NewHost creates a host serving target.
func NewHost(target Target, cfg HostConfig) *Host {
	cfg.HeartbeatTimeout = cmp.Or(cfg.HeartbeatTimeout, DefaultHeartbeatTimeout) // negative disables
	cfg.RetryAfter = cmp.Or(cfg.RetryAfter, DefaultRetryAfter)                   // negative: no hint
	orDefault(&cfg.MaxProtocolVersion, wire.MaxVersion)
	ctx, cancel := context.WithCancel(context.Background())
	h := &Host{
		target:   target,
		script:   target.Definition().Name(),
		cfg:      cfg,
		baseCtx:  ctx,
		cancel:   cancel,
		conns:    make(map[*wire.Conn]struct{}),
		sessions: make(map[string]*hostSession),
	}
	h.pendingOf, _ = target.(pendingOffersReporter)
	return h
}

// errHostClosed answers whatever reaches a host after Close.
var errHostClosed = errors.New("script/remote: host closed")

// overloaded is the host's answer to what admission control sheds, a
// connection or an enrollment: the exhausted resource and the configured
// backoff hint (none when RetryAfter is negative).
func (h *Host) overloaded(reason string) *core.OverloadError {
	return &core.OverloadError{Script: h.script, RetryAfter: max(h.cfg.RetryAfter, 0), Reason: reason}
}

// Listen binds the host to addr (e.g. "127.0.0.1:0").
func (h *Host) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		ln.Close()
		return errHostClosed
	}
	h.ln = ln
	return nil
}

// Addr returns the bound address, or nil before Listen.
func (h *Host) Addr() net.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ln == nil {
		return nil
	}
	return h.ln.Addr()
}

// Serve accepts connections until the listener closes (Close or Drain).
// It returns nil on orderly shutdown.
func (h *Host) Serve() error {
	h.mu.Lock()
	ln := h.ln
	h.mu.Unlock()
	if ln == nil {
		return errors.New("script/remote: Serve before Listen")
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed || h.ln == nil
			h.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		h.connWG.Add(1)
		go h.serveConn(nc)
	}
}

// ListenAndServe binds to addr and serves until shutdown.
func (h *Host) ListenAndServe(addr string) error {
	if err := h.Listen(addr); err != nil {
		return err
	}
	return h.Serve()
}

// Drain shuts the host down gracefully: the listener closes, new offers on
// existing connections are answered with DRAIN *immediately* — the host
// replies without consulting the target, so an ENROLL landing mid-drain is
// rejected at once instead of riding out a target that is busy draining
// (or already closed) — in-flight performances run to completion and their
// COMPLETE frames are delivered, and then the remaining connections close,
// each by its own reader once it has answered what had reached it (see
// lastCall): an enroller whose ENROLL got here is told DRAIN, and only one
// whose ENROLL did not is left to read the close. If ctx ends first the
// forced close happens anyway and the context error is reported.
func (h *Host) Drain(ctx context.Context) error {
	h.draining.Store(true)
	h.closeListener()
	err := h.target.Drain(ctx)
	// The target is drained once every performance has ended; wait until each
	// admitted enrollment has had its terminal frame written.
	done := make(chan struct{})
	go func() {
		h.enrollWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		err = errors.Join(err, ctx.Err())
	}
	h.lastCall(ctx)
	h.Close()
	return err
}

// lastCallBound is how long Drain waits for the connections' readers to
// hang up by themselves before it closes what is left. A reader needs one
// look at its socket (wire.Conn.LastCall); the bound is for one that is stuck
// elsewhere, in a write to a peer that stopped reading, say.
const lastCallBound = time.Second

// lastCall ends the connections of a drained host from the reading side.
// Closing a connection discards what its socket holds, and an ENROLL that
// arrived while the target drained — or that the reader, starved, had not
// got to — would be discarded with it, leaving its enroller to infer a drain
// from a lost connection. So every reader is told to take what has arrived
// (the read loop answers an ENROLL on a draining host with DRAIN itself) and
// then to stop, which closes its connection behind the answers.
func (h *Host) lastCall(ctx context.Context) {
	h.mu.Lock()
	for c := range h.conns {
		c.LastCall()
	}
	h.mu.Unlock()
	hungUp := make(chan struct{})
	go func() {
		h.connWG.Wait() // at the latest when Close, which follows, is done
		close(hungUp)
	}()
	bound := time.NewTimer(lastCallBound)
	defer bound.Stop()
	select {
	case <-hungUp:
	case <-bound.C:
	case <-ctx.Done():
	}
}

// Close tears the network side down immediately: listener and all
// connections close, and performances with a remote role are left to the
// disconnect path. Close is idempotent and does not touch the target.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	conns := make([]*wire.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	h.cancel()
	h.closeListener()
	for _, c := range conns {
		c.Close()
	}
	// Parked sessions have no connection (and so no serveConn goroutine) to
	// notice the shutdown: tear them down explicitly, reclaiming their
	// performances through the same disconnect path a conn death uses.
	h.mu.Lock()
	sessions := make([]*hostSession, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	for _, s := range sessions {
		s.teardown()
	}
	h.connWG.Wait()
	return nil
}

func (h *Host) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

func (h *Host) closeListener() {
	h.mu.Lock()
	ln := h.ln
	h.ln = nil
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

func (h *Host) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// track admits a new connection, or answers why not: errHostClosed, or the
// overload the connection cap sheds it with (counted here).
func (h *Host) track(c *wire.Conn) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errHostClosed
	}
	if h.cfg.MaxConns > 0 && len(h.conns) >= h.cfg.MaxConns {
		h.shedConns.Add(1)
		shedConnsTotal.Inc()
		return h.overloaded("connection cap reached")
	}
	h.conns[c] = struct{}{}
	return nil
}

func (h *Host) untrack(c *wire.Conn) {
	h.mu.Lock()
	delete(h.conns, c)
	h.mu.Unlock()
}

// hostOp is one decoded client operation, the bridge's unit of work, by
// value: the reader copies the fields of the connection's message struct
// (which the next frame overwrites) into one, and the op backlog's buffer is
// the ring they wait in — nothing to allocate, no slot whose lifetime anyone
// tracks. seq is the pipelining sequence the OP-RESULT must echo (always 0 on
// a v1 connection); the rest is the union of the op messages' fields.
type hostOp struct {
	typ      wire.MsgType
	seq      uint64
	peer     string // Send.To, Recv.From, Query.Role
	tag      string // Send.Tag, Recv.Tag, Query.Kind
	name     string // Query.Name
	val      any
	tos      []string            // SendAll.Tos
	branches []wire.SelectBranch // Select.Branches
	results  []any               // BodyDone.Results
	err      *wire.ErrInfo       // BodyDone.Err
}

// opOf copies the op message m, valid only until the reader's next frame,
// into a hostOp. The slices and values it points to were built for this
// frame alone (see wire.Conn.ReadFrame).
func opOf(t wire.MsgType, seq uint64, m any) hostOp {
	op := hostOp{typ: t, seq: seq}
	switch m := m.(type) {
	case *wire.Send:
		op.peer, op.tag, op.val = m.To, m.Tag, m.Val
	case *wire.SendAll:
		op.tos, op.val = m.Tos, m.Val
	case *wire.Recv:
		op.peer, op.tag = m.From, m.Tag
	case *wire.Select:
		op.branches = m.Branches
	case *wire.Query:
		op.peer, op.tag, op.name = m.Role, m.Kind, m.Name
	case *wire.BodyDone:
		op.results, op.err = m.Results, m.Err
	}
	return op
}

// serveConn runs one client connection: admission, handshake, then the
// session read loop (see hostmux.go), which pulls frames under the heartbeat
// read deadline so a silent or severed connection is noticed even while a
// role's op is blocked inside the fabric.
func (h *Host) serveConn(nc net.Conn) {
	defer h.connWG.Done()
	c := wire.NewConn(nc)
	if err := h.track(c); err != nil {
		var oe *core.OverloadError
		if errors.As(err, &oe) {
			// Shed before building any per-connection state: the OVERLOADED
			// frame goes out in place of HELLO-ACK, without even reading the
			// client's HELLO — rejection must stay cheaper than service —
			// and Close's last pass writes it.
			h.logf("remote: %s: connection cap (%d) reached, shedding", c.RemoteAddr(), h.cfg.MaxConns)
			_ = c.WriteFrame(wire.MsgOverloaded, 0, 0, &wire.Overloaded{
				RetryAfterMS: oe.RetryAfter.Milliseconds(),
				Msg:          oe.Reason,
			})
		}
		c.Close()
		return
	}
	defer h.untrack(c)
	defer c.Close()
	c.SetReadTimeout(h.cfg.HeartbeatTimeout) // not positive: unbounded
	c.SetWriteTimeout(h.cfg.WriteTimeout)
	if h.cfg.Faults != nil {
		c.SetFrameDelay(h.cfg.Faults.FrameDelay)
	}
	// The handshake advertises the host's heartbeat timeout (so a client
	// with a slower pump can tighten it below the host's silence bound) and,
	// when resumption is enabled and the client asked for it, mints a
	// session token the client presents in a later RESUME. v1 clients and
	// v2 clients that did not set Hello.Resume see neither field and keep
	// exact pre-resumption semantics.
	var resumeToken string
	if _, err := wire.ServerHandshakeV(c, h.script, h.cfg.MaxProtocolVersion, func(hl wire.Hello, ack *wire.HelloAck) {
		ack.HeartbeatTimeoutMS = h.cfg.HeartbeatTimeout.Milliseconds()
		if ack.Version >= 2 && hl.Resume && h.cfg.ResumeWindow > 0 {
			resumeToken = mintSessionToken()
			if resumeToken != "" {
				ack.ResumeToken = resumeToken
				ack.ResumeWindowMS = h.cfg.ResumeWindow.Milliseconds()
			}
		}
	}); err != nil {
		h.logf("remote: %s: handshake: %v", c.RemoteAddr(), err)
		return
	}
	h.serveSession(c, resumeToken)
}

// admitEnroll decides one ENROLL's admission under the host lock and returns
// the answer itself: nil (the enrollment is registered in enrollWG and
// enrolling, and its stream's finish releases it), errHostClosed, ErrDraining, or
// the overload it is shed with, which is counted and logged here. Shedding is
// an admission-time decision only: work already admitted is never touched.
func (h *Host) admitEnroll(from, role string) error {
	var err error
	var full string
	h.mu.Lock()
	switch f := h.cfg.Faults; {
	case h.closed:
		err = errHostClosed
	case h.draining.Load():
		// Answer unadmitted enrollments at once: the target may be busy
		// draining (or already closed), and a queued offer must not ride
		// out the heartbeat timeout waiting for it.
		err = core.ErrDraining
	case f != nil && f.Overload():
		full = "injected overload burst"
	case h.cfg.MaxEnrollments > 0 && int(h.enrolling.Load()) >= h.cfg.MaxEnrollments:
		full = fmt.Sprintf("enrollment cap (%d) reached", h.cfg.MaxEnrollments)
	case h.cfg.MaxPendingOffers > 0 && h.pendingOf != nil && h.pendingOf.PendingOffers() >= h.cfg.MaxPendingOffers:
		full = fmt.Sprintf("pending-offer cap (%d) reached", h.cfg.MaxPendingOffers)
	default:
		h.enrollWG.Add(1)
		h.enrolling.Add(1)
	}
	h.mu.Unlock()
	if full == "" {
		return err
	}
	h.shedEnrolls.Add(1)
	shedEnrollsTotal.Inc()
	h.logf("remote: %s: shedding ENROLL for %s: %s", from, role, full)
	return h.overloaded(full)
}

// bridge is the server-side stand-in for a remote role body: the client's
// operation frames are posted into the real RoleCtx (and so into the shared
// fabric) and their results written back out by whoever commits them,
// addressed to the stream and echoing each op's sequence ID on its OP-RESULT.
type bridge struct {
	fw frameWriter // the session (resumable) or the bare connection
	// op is the op in hand, posted or ending the role, and opCh the backlog
	// behind it, filled by the connection's reader and drained by the op's
	// completer.
	op       hostOp
	opCh     chan hostOp
	streamID uint64
	// ack and res are the frames the stream writes, one at a time: encoded
	// before WriteFrame returns, so the next one can take their place.
	// branches and tos are the storage a SELECT's alternative and a SEND-ALL's
	// targets are built in, and post the op's record: the core reads them
	// until the op's outcome is in.
	ack      wire.OfferAck
	res      wire.OpResult
	branches []core.SelectBranch
	tos      []ids.RoleRef
	post     core.Post
}

// frameWriter is where a bridge's frames go: the bare connection, or a
// wire.Session that retains them for replay across reconnects — in which
// case a transient transport loss never surfaces as a write error here.
type frameWriter interface {
	WriteFrame(t wire.MsgType, stream, seq uint64, m any) error
}

// write sends one frame to the bridge's enroller on its stream.
func (b *bridge) write(t wire.MsgType, seq uint64, m any) error {
	return b.fw.WriteFrame(t, b.streamID, seq, m)
}

var errEnrollerLost = fmt.Errorf("%w: enroller disconnected mid-performance", ErrConnLost)

// enrollerGone is the reason of every abort that blames a role for its
// enroller having vanished, whoever notices first: the session's teardown, or
// a failed write of the role's OFFER-ACK or OP-RESULT (which a frame to a
// resumable session never is, and to a bare connection only once that is
// dead or its peer has stopped reading for WriteTimeout).
const enrollerGone = "remote enroller disconnected"

// post posts the op in hand, decoded, as the stream's role's: the stream is
// its completer. A QUERY, which waits for nobody, and an op that does not
// decode are answered at once.
func (st *hostStream) post() {
	rc, b, op := st.o.Ctx(), &st.b, &st.b.op
	fail := func(err error) { st.Complete(core.Selected{}, err) }
	// The one role a SEND, a RECV or a QUERY names (none is no role at all,
	// which the core answers as it answers any unknown one).
	var peer ids.RoleRef
	if op.peer != "" {
		var err error
		if peer, err = wire.DecodeRoleRef(op.peer); err != nil {
			fail(fmt.Errorf("%w: %s", core.ErrUnknownRole, op.peer))
			return
		}
	}
	switch op.typ {
	case wire.MsgSend:
		rc.PostSendTag(&b.post, peer, op.tag, op.val, st)
	case wire.MsgSendAll:
		tos := b.tos[:0]
		for _, s := range op.tos {
			to, err := wire.DecodeRoleRef(s)
			if err != nil {
				fail(fmt.Errorf("%w: %s", core.ErrUnknownRole, s))
				return
			}
			tos = append(tos, to)
		}
		b.tos = tos
		rc.PostSendAll(&b.post, tos, op.val, st)
	case wire.MsgRecv:
		rc.PostRecvTag(&b.post, peer, op.tag, st)
	case wire.MsgRecvAny:
		rc.PostRecvAny(&b.post, st)
	case wire.MsgSelect:
		branches := b.branches[:0]
		for _, wb := range op.branches {
			switch {
			case wb.Send:
				to, err := wire.DecodeRoleRef(wb.Peer)
				if err != nil {
					fail(fmt.Errorf("%w: %s", core.ErrUnknownRole, wb.Peer))
					return
				}
				branches = append(branches, core.SendTagTo(to, wb.Tag, wb.Val))
			case wb.AnyPeer:
				branches = append(branches, core.RecvFromAnyone(wb.Tag))
			default:
				from, err := wire.DecodeRoleRef(wb.Peer)
				if err != nil {
					fail(fmt.Errorf("%w: %s", core.ErrUnknownRole, wb.Peer))
					return
				}
				branches = append(branches, core.RecvTagFrom(from, wb.Tag))
			}
		}
		b.branches = branches
		rc.PostSelect(&b.post, st, branches...)
	case wire.MsgQuery:
		switch op.tag {
		case wire.QueryTerminated:
			b.res = wire.OpResult{Bool: rc.Terminated(peer)}
		case wire.QueryFilled:
			b.res = wire.OpResult{Bool: rc.Filled(peer)}
		case wire.QueryFamilySize:
			b.res = wire.OpResult{N: rc.FamilySize(op.name)}
		default:
			fail(fmt.Errorf("script/remote: unknown query kind %q", op.tag))
			return
		}
		st.reply()
	default:
		fail(fmt.Errorf("script/remote: unexpected %s during performance", op.typ))
	}
}
