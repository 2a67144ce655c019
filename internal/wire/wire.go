// Package wire defines the remote-enrollment wire protocol: the framing,
// the message vocabulary, and the error taxonomy mapping that let an actual
// OS process enroll into a script instance served by another process over
// TCP (see internal/remote for the host and client built on top).
//
// The paper's model assumes genuinely separate processes joining roles; in
// this runtime a remote enrollment keeps the paper's key property — the role
// body remains "a logical continuation of the enrolling process", executing
// in the *client* — while the coordination state (matching, the rendezvous
// fabric, deadlines, abort) stays in the serving process. Every Ctx
// operation a remote body issues is one request/response exchange on its
// connection.
//
// # Framing
//
// Every message is one frame:
//
//	uint32 (big endian)  frame length N (type byte + payload), 1 <= N <= MaxFrame
//	uint8                message type (MsgType)
//	N-1 bytes            payload, in the connection's negotiated codec
//
// Protocol v1 payloads are JSON, which keeps the fallback debuggable with
// standard tools and imposes the usual coercions: numeric values cross the
// wire as float64, []byte as base64 strings. Protocol v2 payloads start
// with a stream ID and a sequence ID (the multiplexing envelope) followed by
// a compact binary body that preserves integer-ness (see binary.go). The
// handshake itself is always JSON: the version is not known until it ends.
// One encoder (appendFrame) and one reader (Conn.ReadFrame) serve both
// codecs, and each message has one encodable form — a pointer to its struct,
// which is also what the reader returns (see msgTable).
//
// A frame costs one decode and one encode, each in place. Conn.ReadFrame
// decodes into message structs the connection's single reader owns, valid
// until the next ReadFrame: the reader copies what it keeps by value, into
// storage its stream already has, inside the critical section that routes
// the frame. ParsePayload is the same decoder filling a fresh struct, for
// callers with no connection to own one (fuzzing, tests, the benchmark's
// codec loops). Conn.WriteFrame encodes at the end of the buffer the flusher
// sends from. Neither direction has a pool to return anything to.
//
// # Conversation
//
// A connection begins with a versioned handshake (MsgHello → MsgHelloAck,
// see ClientHandshakeV and ServerHandshakeV). Each enrollment then runs
// this exchange on its own stream; a v2 connection interleaves up to the
// enroller's stream cap of them, a v1 connection runs one at a time as
// stream 0:
//
//	C→S  MsgEnroll                       offer to play a role
//	S→C  MsgOfferAck                     assigned; the client runs the body
//	C→S  MsgSend|MsgSendAll|MsgRecv|MsgRecvAny|MsgSelect|MsgQuery  (repeat)
//	S→C  MsgOpResult                     one per operation, echoing its seq
//	C→S  MsgBodyDone                     body returned (results + its error)
//	S→C  MsgComplete                     enrollment released (values + error)
//
// MsgDrain answers an enrollment rejected by a draining host, MsgAbort
// notifies of a performance aborted between operations, MsgCancel (v2)
// withdraws one stream's pending offer, MsgHeartbeat flows client→server
// at any time as a liveness signal (the server treats *any* frame as
// liveness and aborts the connection's performances when it stays silent
// past its heartbeat timeout), and MsgError reports a protocol violation
// before the connection closes. MsgOverloaded rejects a connection at
// handshake time when the host is at its connection cap (carrying a
// retry-after hint); an enrollment shed by admission control is instead
// answered with an ordinary MsgComplete whose ErrInfo carries
// CodeOverloaded, so the connection stays usable. MsgResume, MsgResumeAck,
// MsgAck and MsgBye ride stream 0 of a v2 connection whose handshake
// granted session resumption (see Session).
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/metrics"
)

// Always-on handshake counters, by negotiated protocol version. Incremented
// at either end of a successful handshake, so on a host they count accepted
// connections and on a client outbound ones; the v1/v2 split shows how much
// of the fleet still falls back to the JSON protocol.
var (
	connsV1Total = metrics.Get(metrics.WireConnsV1)
	connsV2Total = metrics.Get(metrics.WireConnsV2)
)

func countConn(version int) {
	if version >= 2 {
		connsV2Total.Inc()
	} else {
		connsV1Total.Inc()
	}
}

// Protocol constants.
const (
	// Magic identifies the protocol in the handshake.
	Magic = "SCRW"
	// Version is the oldest protocol version this package speaks and the
	// floor every HELLO carries; MaxVersion (binary.go) is the newest, and
	// the handshake fails closed when the two ranges do not meet.
	Version = 1
	// MaxFrame bounds a frame (type byte + payload) so a corrupt or
	// malicious length prefix cannot make a peer allocate unboundedly.
	MaxFrame = 8 << 20
)

// MsgType identifies a frame's message type.
type MsgType uint8

// Message types.
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgEnroll
	MsgOfferAck
	MsgSend
	MsgSendAll
	MsgRecv
	MsgRecvAny
	MsgSelect
	MsgQuery
	MsgBodyDone
	MsgOpResult
	MsgComplete
	MsgAbort
	MsgDrain
	MsgHeartbeat
	MsgError
	MsgOverloaded
	// MsgCancel (v2 only) withdraws one enrollment's pending offer on a
	// multiplexed connection. v1 has no need for it — a v1 client withdraws
	// by severing the connection, but a v2 connection is shared by other
	// streams and must stay up.
	MsgCancel
	// Session-resumption vocabulary (v2 only, negotiated in the handshake —
	// see Hello.Resume / HelloAck.ResumeToken). All four ride stream 0 and
	// are therefore outside the resumable-frame count (see Session).
	MsgResume    // client→host on a redialed conn: re-attach a parked session
	MsgResumeAck // host→client: session re-attached, replay follows
	MsgAck       // either direction: cumulative receipt ack, prunes the ring
	MsgBye       // client→host: deliberate teardown, free parked state now
)

// msgTable is the one per-type table: the protocol name and a constructor
// for the empty struct a payload of that type decodes into. MsgType.String
// and both codecs read it, and the round-trip and golden-bytes tests walk
// it, so a type added here without codec cases fails them.
var msgTable = [...]struct {
	name string
	new  func() any
}{
	MsgHello:      {"HELLO", func() any { return new(Hello) }},
	MsgHelloAck:   {"HELLO-ACK", func() any { return new(HelloAck) }},
	MsgEnroll:     {"ENROLL", func() any { return new(Enroll) }},
	MsgOfferAck:   {"OFFER-ACK", func() any { return new(OfferAck) }},
	MsgSend:       {"SEND", func() any { return new(Send) }},
	MsgSendAll:    {"SEND-ALL", func() any { return new(SendAll) }},
	MsgRecv:       {"RECV", func() any { return new(Recv) }},
	MsgRecvAny:    {"RECV-ANY", func() any { return new(Recv) }},
	MsgSelect:     {"SELECT", func() any { return new(Select) }},
	MsgQuery:      {"QUERY", func() any { return new(Query) }},
	MsgBodyDone:   {"BODY-DONE", func() any { return new(BodyDone) }},
	MsgOpResult:   {"OP-RESULT", func() any { return new(OpResult) }},
	MsgComplete:   {"COMPLETE", func() any { return new(Complete) }},
	MsgAbort:      {"ABORT", func() any { return new(Abort) }},
	MsgDrain:      {"DRAIN", func() any { return new(Drain) }},
	MsgHeartbeat:  {"HEARTBEAT", func() any { return new(Heartbeat) }},
	MsgError:      {"ERROR", func() any { return new(ProtoError) }},
	MsgOverloaded: {"OVERLOADED", func() any { return new(Overloaded) }},
	MsgCancel:     {"CANCEL", func() any { return new(Cancel) }},
	MsgResume:     {"RESUME", func() any { return new(Resume) }},
	MsgResumeAck:  {"RESUME-ACK", func() any { return new(ResumeAck) }},
	MsgAck:        {"ACK", func() any { return new(Ack) }},
	MsgBye:        {"BYE", func() any { return new(Bye) }},
}

// String returns the protocol name of the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTable) && msgTable[t].name != "" {
		return msgTable[t].name
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Hello is the client's opening frame. Version carries the floor the
// client insists on (always 1, so a pre-v2 host accepts it), MaxVersion
// the newest version the client can speak; a host that predates
// MaxVersion ignores the unknown JSON field and acks v1, which is exactly
// the fallback we want.
type Hello struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// MaxVersion, when >= Version, advertises the newest protocol version
	// the client speaks; 0 (absent) means Version is also the max.
	MaxVersion int `json:"max_version,omitempty"`
	// Script, when non-empty, is the script name the client expects; the
	// host rejects the handshake if it serves a different script.
	Script string `json:"script,omitempty"`
	// Resume advertises that the client can resume a parked session after a
	// transient connection loss (v2 clients only). Hosts that predate
	// resumption ignore the field; hosts with resumption disabled leave
	// HelloAck.ResumeToken empty — either way both sides keep the exact
	// pre-resumption abort semantics.
	Resume bool `json:"resume,omitempty"`
}

// HelloAck is the host's handshake reply.
type HelloAck struct {
	Version int    `json:"version"`
	Script  string `json:"script"`
	// HeartbeatTimeoutMS advertises the host's heartbeat timeout so the
	// client can clamp its heartbeat interval below it — a client configured
	// with HeartbeatInterval >= the host's timeout would otherwise make
	// every healthy idle connection look severed. 0 (or an old host) means
	// "not advertised"; negative means the host disabled the timeout.
	HeartbeatTimeoutMS int64 `json:"heartbeat_timeout_ms,omitempty"`
	// ResumeToken, when non-empty, is the host-minted session token the
	// client may present in a RESUME frame after a connection loss, within
	// ResumeWindowMS of the host noticing the break. Empty when the host has
	// resumption disabled, the connection is v1, or the client did not
	// advertise Hello.Resume.
	ResumeToken    string `json:"resume_token,omitempty"`
	ResumeWindowMS int64  `json:"resume_window_ms,omitempty"`
}

// Enroll is the client's offer to play a role.
type Enroll struct {
	PID  string `json:"pid"`
	Role string `json:"role"`
	Args []any  `json:"args,omitempty"`
	// With carries partner constraints: role reference → acceptable PIDs.
	With map[string][]string `json:"with,omitempty"`
	// DeadlineMS is Enrollment.Deadline as Unix milliseconds (0 = none); it
	// feeds the host instance's performance-deadline machinery.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// TraceID, when non-empty, is a trace ID (16 hex digits) minted by the
	// client's sampler; the performance this enrollment initiates adopts it,
	// so both sides of the wire record events on one timeline. Hosts that
	// predate tracing ignore the field — the call is still served, untraced.
	TraceID string `json:"trace_id,omitempty"`
}

// OfferAck tells the client its offer was assigned to a performance and the
// role body may start.
type OfferAck struct {
	Performance int    `json:"performance"`
	Role        string `json:"role"`
	// TraceID echoes the performance's trace ID (the client's, or one the
	// host's sampler minted); empty when the performance is not traced.
	TraceID string `json:"trace_id,omitempty"`
}

// Send requests a synchronous transfer to a peer role.
type Send struct {
	To  string `json:"to"`
	Tag string `json:"tag,omitempty"`
	Val any    `json:"val"`
}

// SendAll requests a vectorized scatter to several peer roles.
type SendAll struct {
	Tos []string `json:"tos"`
	Val any      `json:"val"`
}

// Recv requests the next message from a peer role.
type Recv struct {
	From string `json:"from"`
	Tag  string `json:"tag,omitempty"`
}

// SelectBranch is one enabled alternative of a remote Select. Index is the
// branch's position in the client's original call, so disabled branches can
// be filtered client-side without losing the caller's numbering.
type SelectBranch struct {
	Send    bool   `json:"send"`
	Peer    string `json:"peer,omitempty"`
	AnyPeer bool   `json:"any_peer,omitempty"`
	Tag     string `json:"tag,omitempty"`
	Val     any    `json:"val,omitempty"`
	Index   int    `json:"index"`
}

// Select requests a guarded alternative over the enabled branches.
type Select struct {
	Branches []SelectBranch `json:"branches"`
}

// Query kinds.
const (
	QueryTerminated = "terminated"
	QueryFilled     = "filled"
	QueryFamilySize = "family_size"
)

// Query requests a predicate about the performance (Terminated, Filled,
// FamilySize).
type Query struct {
	Kind string `json:"kind"`
	// Role is the role reference for terminated/filled; Name the family name
	// for family_size.
	Role string `json:"role,omitempty"`
	Name string `json:"name,omitempty"`
}

// BodyDone tells the host the client's role body returned.
type BodyDone struct {
	Results []any    `json:"results,omitempty"`
	Err     *ErrInfo `json:"err,omitempty"`
}

// OpResult answers one operation request.
type OpResult struct {
	Val   any      `json:"val,omitempty"`
	Peer  string   `json:"peer,omitempty"`
	Tag   string   `json:"tag,omitempty"`
	Index int      `json:"index,omitempty"`
	N     int      `json:"n,omitempty"`
	Bool  bool     `json:"bool,omitempty"`
	Err   *ErrInfo `json:"err,omitempty"`
}

// Complete reports the enrollment's final outcome: the process is released.
type Complete struct {
	Performance int      `json:"performance"`
	Role        string   `json:"role,omitempty"`
	Values      []any    `json:"values,omitempty"`
	Err         *ErrInfo `json:"err,omitempty"`
}

// Abort notifies the client that its performance was aborted by the runtime
// (sent between operations; an in-flight operation carries the abort in its
// OpResult instead).
type Abort struct {
	Performance int    `json:"performance"`
	Culprit     string `json:"culprit,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// Drain answers an enrollment rejected because the host is draining.
type Drain struct{}

// Heartbeat is the client's liveness signal.
type Heartbeat struct{}

// Cancel withdraws one enrollment's pending offer on a v2 multiplexed
// connection (identified by the frame's stream ID). The host answers with
// the stream's terminal frame — COMPLETE carrying the withdrawal outcome —
// and the connection stays usable for its other streams.
type Cancel struct{}

// Resume is the first frame a client sends on a redialed connection (after
// the ordinary handshake) to re-attach a session the host parked when the
// previous connection broke. RecvCount is the client's cumulative count of
// session frames (stream != 0) received so far; the host replays exactly
// the unacked suffix beyond it, so every frame lost in the blip arrives
// exactly once (TCP orders each direction, so a cumulative count per
// direction is a complete receipt state — no per-frame dedup needed).
type Resume struct {
	Token     string `json:"token"`
	RecvCount uint64 `json:"recv_count"`
}

// ResumeAck accepts a RESUME: the host's own cumulative receipt count, which
// the client uses to replay its unacked suffix. A refused RESUME is answered
// with MsgError instead and the connection closed.
type ResumeAck struct {
	RecvCount uint64 `json:"recv_count"`
}

// Ack carries a cumulative receipt count (session frames, stream != 0) so
// the peer can prune its retransmit ring. Sent periodically by both sides
// of a resumable connection; rides stream 0 and is itself uncounted.
type Ack struct {
	Count uint64 `json:"count"`
}

// Bye announces a deliberate client teardown on a resumable connection: the
// host frees parked/parkable session state immediately instead of holding
// it for the grace window. Best-effort — a client that dies without BYE
// just costs the host one grace window.
type Bye struct{}

// ProtoError reports a protocol violation; the sender closes the connection
// after it.
type ProtoError struct {
	Msg string `json:"msg"`
}

// Overloaded rejects a connection at handshake time because the host is at
// its connection cap: it is sent *in place of* HELLO-ACK (without reading
// the client's HELLO — shedding must stay cheaper than serving), and the
// host closes the connection after it. Enrollment-level shedding instead
// rides the ordinary COMPLETE frame with a CodeOverloaded ErrInfo, keeping
// the connection usable.
type Overloaded struct {
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Msg          string `json:"msg,omitempty"`
}

// Error codes carried by ErrInfo, mapping the runtime's error taxonomy
// (DESIGN.md "Failure semantics") across the wire.
const (
	CodeRoleAbsent   = "role_absent"
	CodeRoleFinished = "role_finished"
	CodeUnknownRole  = "unknown_role"
	CodeClosed       = "closed"
	CodeDraining     = "draining"
	CodeOverloaded   = "overloaded"
	CodeAborted      = "aborted"
	CodeNoBranches   = "no_branches"
	CodeCanceled     = "canceled"
	CodeDeadline     = "deadline"
	CodeRoleError    = "role_error"
	CodeOther        = "other"
)

// ErrInfo is an error crossing the wire: a taxonomy code plus the fields
// needed to reconstruct the concrete error type on the far side, so
// errors.Is / errors.As work identically for local and remote enrollment.
type ErrInfo struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
	// Abort details (CodeAborted).
	Script      string `json:"script,omitempty"`
	Performance int    `json:"performance,omitempty"`
	Culprit     string `json:"culprit,omitempty"`
	Reason      string `json:"reason,omitempty"`
	// Role details (CodeRoleError).
	Role string `json:"role,omitempty"`
	// Overload details (CodeOverloaded): the shedding side's backoff hint in
	// milliseconds (0 = none given).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// errCodes is the error taxonomy's one table: each code, its byte in a v2
// ErrInfo (byte 0 escapes to an explicit string code, so codes added later
// still cross older decoders losslessly) and the sentinel an error of that
// code unwraps to. Rows are in EncodeError's precedence order: an error that
// matches several is the first one's. A code without a sentinel stands for a
// struct (or, CodeOther, for nothing), which EncodeError and Err handle in
// arms of their own.
var errCodes = [...]struct {
	code     string
	b        byte
	sentinel error
}{
	{CodeOverloaded, 6, core.ErrOverloaded},
	{CodeAborted, 7, nil},
	{CodeRoleError, 11, nil},
	{CodeRoleAbsent, 1, core.ErrRoleAbsent},
	{CodeRoleFinished, 2, core.ErrRoleFinished},
	{CodeUnknownRole, 3, core.ErrUnknownRole},
	{CodeDraining, 5, core.ErrDraining},
	{CodeClosed, 4, core.ErrClosed},
	{CodeNoBranches, 8, core.ErrNoBranches},
	{CodeCanceled, 9, context.Canceled},
	{CodeDeadline, 10, context.DeadlineExceeded},
	{CodeOther, 12, nil},
}

// EncodeError maps err onto its wire representation. A nil error encodes as
// nil.
func EncodeError(err error) *ErrInfo {
	if err == nil {
		return nil
	}
	e := &ErrInfo{Code: CodeOther, Msg: err.Error()}
	var ae *core.AbortError
	var re *core.RoleError
	var oe *core.OverloadError
	for _, c := range errCodes {
		switch {
		case c.code == CodeAborted && errors.As(err, &ae):
			e.Script = ae.Script
			e.Performance = ae.Performance
			e.Reason = ae.Reason
			if ae.Culprit.Name != "" {
				e.Culprit = ae.Culprit.String()
			}
		case c.code == CodeRoleError && errors.As(err, &re):
			e.Script = re.Script
			e.Role = re.Role.String()
			e.Msg = re.Err.Error()
		case c.sentinel != nil && errors.Is(err, c.sentinel):
			// A bare ErrOverloaded has no hint to carry.
			if c.code == CodeOverloaded && errors.As(err, &oe) {
				e.Script = oe.Script
				e.Reason = oe.Reason
				e.RetryAfterMS = oe.RetryAfter.Milliseconds()
			}
		default:
			continue
		}
		e.Code = c.code
		break
	}
	return e
}

// codedError preserves the original error text while unwrapping to the
// matching sentinel, so a remotely surfaced error satisfies the same
// errors.Is checks as its local counterpart.
type codedError struct {
	sentinel error
	msg      string
}

func (e *codedError) Error() string { return e.msg }
func (e *codedError) Unwrap() error { return e.sentinel }

// Err reconstructs the concrete error. A nil ErrInfo yields nil.
func (e *ErrInfo) Err() error {
	if e == nil {
		return nil
	}
	switch e.Code {
	case CodeOverloaded:
		return &core.OverloadError{
			Script:     e.Script,
			Reason:     e.Reason,
			RetryAfter: time.Duration(e.RetryAfterMS) * time.Millisecond,
		}
	case CodeAborted:
		var culprit ids.RoleRef
		if e.Culprit != "" {
			if r, err := ids.ParseRoleRef(e.Culprit); err == nil {
				culprit = r
			}
		}
		return &core.AbortError{
			Script:      e.Script,
			Performance: e.Performance,
			Culprit:     culprit,
			Reason:      e.Reason,
		}
	case CodeRoleError:
		role, err := ids.ParseRoleRef(e.Role)
		if err != nil {
			role = ids.RoleRef{Name: e.Role, Index: ids.ScalarIndex}
		}
		return &core.RoleError{Script: e.Script, Role: role, Err: errors.New(e.Msg)}
	}
	for _, c := range errCodes {
		if c.code == e.Code && c.sentinel != nil {
			return &codedError{c.sentinel, e.Msg}
		}
	}
	return errors.New(e.Msg)
}

// Conn frames messages over a net.Conn. Any goroutine may write a frame;
// reads must stay single-goroutine. The zero read/write timeouts mean "no
// deadline".
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	// The socket has one writer, the flusher goroutine.
	// WriteFrame appends its frame to out under wmu and returns, and the
	// writer that finds out empty nudges the flusher via flushReq — one nudge
	// per burst: the frames that follow it into out leave with the pass it
	// asked for. Each pass swaps out for its spare under wmu and writes the
	// whole batch outside it, in one syscall (a multiplexed connection's
	// fan-out burst, 64 op results after one scatter say, leaves in a
	// handful), so wmu is never held across a write and no writer waits on
	// the peer. flushErr latches the first failed write (which also closes
	// the socket); every later write returns it. out and flushErr are guarded
	// by wmu; flushReq and quit are safe channels. The flusher starts lazily
	// on the first WriteFrame — the handshake's, so it is the socket's only
	// writer from the first byte — and closes flushed when Close ends it.
	wmu      sync.Mutex
	out      []byte
	flushErr error
	flushReq chan struct{}
	quit     chan struct{}
	flushed  chan struct{}
	// frames counts the frames buffered so far: what the flusher watches,
	// without taking wmu, to tell whether a burst is still growing. passes
	// counts the flusher's passes (tests hold it to one per burst).
	frames      atomic.Uint64
	passes      atomic.Uint64
	flusherOnce sync.Once
	closeOnce   sync.Once
	// held is set by the connection's read loop (NextFrame) while it handles
	// a frame: a frame that finds out empty meanwhile does not nudge the
	// flusher but sets gathered, and the loop nudges once before it next
	// waits for the peer. The pass that nudge asks for skips the batching
	// yields (the loop has gathered the burst already) and clears gathered.
	// Only the loop writes held.
	held     atomic.Bool
	gathered atomic.Bool
	// batchWrites hints that several writers share the connection (2+ live
	// multiplexed streams): the flusher then yields briefly before
	// flushing so a fan-out burst leaves in one syscall. Off (the
	// default), frames flush as soon as the flusher sees them — the right
	// call for a lock-step conversation, where deferring the only
	// writer's frame is pure latency.
	batchWrites atomic.Bool

	// version is the protocol version negotiated by the handshake (1 until
	// a handshake says otherwise). It selects the payload codec used by
	// WriteFrame/ReadFrame.
	version int
	// rbuf is ReadFrame's reused frame buffer: each frame is decoded (fully
	// copied into its message struct) before the next read, so one buffer
	// per connection suffices. It is dropped rather than pinned once a frame
	// grew it beyond maxKeptBuf. hdr is the length prefix's buffer and dec
	// what the frames decode with and into (see decoder); all three belong
	// to the one reader.
	rbuf []byte
	hdr  [4]byte
	dec  decoder

	readTimeout  time.Duration
	writeTimeout time.Duration
	// lastCall is set by LastCall; rdmu orders the read deadline LastCall sets
	// against the ones the reader arms.
	rdmu     sync.Mutex
	lastCall bool
	// frameDelay, when non-nil, injects latency before each frame write
	// (chaos network faults).
	frameDelay func() time.Duration
}

// NewConn wraps nc for framed message exchange.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 16<<10),
		version:  Version,
		flushReq: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		flushed:  make(chan struct{}),
	}
}

// Version reports the protocol version negotiated on this connection
// (Version until a handshake upgrades it).
func (c *Conn) Version() int { return c.version }

// SetVersion overrides the negotiated protocol version. Tests and bench
// harnesses use it to exercise a specific codec; production code lets the
// handshake set it.
func (c *Conn) SetVersion(v int) { c.version = v }

// SetWriteBatching hints whether several concurrent writers share this
// connection (see batchWrites). The multiplexing layers toggle it as the
// live stream count crosses 2; it is advisory, so races with in-flight
// writes are harmless.
func (c *Conn) SetWriteBatching(on bool) { c.batchWrites.Store(on) }

// SetReadTimeout bounds every wait for the peer's bytes inside subsequent
// ReadFrames (0 = unbounded). The host sets it to its heartbeat timeout: a
// connection silent for longer is presumed lost. Going back to unbounded
// also clears the deadline the last bounded wait left on the socket, which
// would otherwise fail a healthy read one timeout later. Call it from the
// reading goroutine, between ReadFrames.
func (c *Conn) SetReadTimeout(d time.Duration) {
	c.readTimeout = d
	if d <= 0 {
		// Fails only on a closed socket, where the next read fails anyway.
		_ = c.nc.SetReadDeadline(time.Time{})
	}
}

// SetWriteTimeout bounds each subsequent write to the socket (0 =
// unbounded): each of the flusher's writes but Close's last, which closeGrace
// bounds.
func (c *Conn) SetWriteTimeout(d time.Duration) { c.writeTimeout = d }

// SetFrameDelay injects fn's latency before every frame write; nil disables
// injection. Used by the chaos harness's network faults.
func (c *Conn) SetFrameDelay(fn func() time.Duration) { c.frameDelay = fn }

// RemoteAddr returns the peer's network address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close ends the flusher, gives its last pass — the frames still buffered,
// a protocol-error frame written just before teardown say, or the only frame
// of a connection shed or rejected at the handshake — at most closeGrace, and closes the underlying connection. Safe concurrently with
// blocked reads and writes, which then fail; every later write returns
// net.ErrClosed.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.quit) })
	c.flusherOnce.Do(func() { close(c.flushed) }) // never started: nothing to wait for
	select {
	case <-c.flushed:
	case <-time.After(closeGrace): // the last pass is stuck on the peer; closing the socket ends it
	}
	c.wmu.Lock()
	if c.flushErr == nil {
		c.flushErr = net.ErrClosed
	}
	c.wmu.Unlock()
	return c.nc.Close()
}

// closeGrace bounds the flusher's last pass, the one Close asks for.
const closeGrace = 100 * time.Millisecond

// maxKeptBuf bounds the read buffer, and the flusher's spare, a connection
// keeps between frames.
const maxKeptBuf = 64 << 10

// appendFrame appends one complete frame — length header, type byte and
// the payload of m under protocol version ver — to dst. It is the only
// frame encoder: Conn, Session and the handshake all write through it.
func appendFrame(dst []byte, ver int, t MsgType, stream, seq uint64, m any) ([]byte, error) {
	start := len(dst)
	// Reserve the header up front so payload bytes append in place.
	dst = append(dst, 0, 0, 0, 0, byte(t))
	dst, err := AppendPayload(dst, ver, t, stream, seq, m)
	if err != nil {
		return nil, err
	}
	n := len(dst) - start - 4
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: %s frame exceeds %d bytes", t, MaxFrame)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// WriteFrame encodes m with the connection's negotiated codec and appends
// one framed message for the flusher to write; it never waits on the peer.
// stream and seq are the v2 multiplexing envelope and must be zero on a v1
// connection. The frame is encoded where it leaves from, the end of out:
// steady-state v2 writes allocate and copy nothing. Nothing is buffered of a
// message that does not encode.
func (c *Conn) WriteFrame(t MsgType, stream, seq uint64, m any) error {
	if err := c.lockWrite(); err != nil {
		return err
	}
	defer c.wmu.Unlock()
	out, err := appendFrame(c.out, c.version, t, stream, seq, m)
	if err != nil {
		return err
	}
	c.commit(out)
	return nil
}

// writeRaw appends one fully assembled frame (header + payload), a
// session's retained one: the other way into out.
func (c *Conn) writeRaw(frame []byte) error {
	if err := c.lockWrite(); err != nil {
		return err
	}
	defer c.wmu.Unlock()
	c.commit(append(c.out, frame...))
	return nil
}

// lockWrite takes the write mutex for one frame, honoring the chaos frame
// delay; it returns holding the mutex unless an earlier write failed.
func (c *Conn) lockWrite() error {
	c.flusherOnce.Do(func() { go c.flusher() })
	c.wmu.Lock()
	if c.flushErr != nil {
		c.wmu.Unlock()
		return c.flushErr
	}
	c.delay()
	return nil
}

// delay sleeps for the chaos frame delay, if one is set.
func (c *Conn) delay() {
	if c.frameDelay != nil {
		if d := c.frameDelay(); d > 0 {
			time.Sleep(d)
		}
	}
}

// commit makes out, grown by one frame, the buffer the flusher takes next,
// and nudges the flusher if the frame is the first since its last pass. The
// caller holds wmu.
func (c *Conn) commit(out []byte) {
	first := len(c.out) == 0
	c.out = out
	c.frames.Add(1)
	if !first {
		return // the nudge the burst's first frame gave takes this one too
	}
	if c.held.Load() {
		// The read loop nudges before it waits. Stored before held is looked at
		// again, and release swaps held before it looks at gathered: one of the
		// two sees the other, so a release racing this frame cannot miss it.
		c.gathered.Store(true)
		if c.held.Load() {
			return
		}
	}
	c.nudge()
}

// nudge asks the flusher for a pass. A nudge still queued covers the frame.
func (c *Conn) nudge() {
	select {
	case c.flushReq <- struct{}{}:
	default:
	}
}

// armWrite starts a write timeout of d (0 = none) for one write to the
// socket.
func (c *Conn) armWrite(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	return c.nc.SetWriteDeadline(time.Now().Add(d))
}

// armRead starts the read timeout's clock if reading n more bytes will wait
// on the socket. A read served from the buffer cannot time out and skips the
// timer; every wait is preceded by a fresh deadline, so a connection is
// never waited on for longer than readTimeout. On a connection's last call
// the wait is for lastCallSweep instead, which armRead reports.
func (c *Conn) armRead(n int) (sweep bool, err error) {
	if c.br.Buffered() >= n {
		return false, nil
	}
	c.release()
	c.rdmu.Lock()
	defer c.rdmu.Unlock()
	switch {
	case c.lastCall:
		return true, c.nc.SetReadDeadline(time.Now().Add(lastCallSweep))
	case c.readTimeout > 0:
		return false, c.nc.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
	return false, nil
}

// lastCallSweep is how long a connection on its last call waits for bytes
// that are not there: long enough to tell "nothing has arrived" from "the
// socket was not looked at yet", not long enough to wait for a peer.
const lastCallSweep = 5 * time.Millisecond

// LastCall tells the connection's reader to take what has already arrived
// and then stop: frames in the read buffer and in the socket are still
// delivered, and the first ReadFrame that would have to wait longer than
// lastCallSweep for more fails with a timeout. A reader blocked on an idle
// connection is woken at once to look. Safe from any goroutine. A host calls
// it on the connections it is about to close once its target has drained, so
// that an ENROLL which reached the host is answered, not closed on.
func (c *Conn) LastCall() {
	c.rdmu.Lock()
	defer c.rdmu.Unlock()
	if !c.lastCall {
		c.lastCall = true
		// Already past: the wait in progress ends now and ReadFrame looks again
		// under the sweep's deadline. Fails only on a closed socket.
		_ = c.nc.SetReadDeadline(time.Now())
	}
}

// onLastCall reports whether LastCall was called.
func (c *Conn) onLastCall() bool {
	c.rdmu.Lock()
	defer c.rdmu.Unlock()
	return c.lastCall
}

// flusher is the socket's one writer from the first WriteFrame until
// Close: each nudge is one pass, one write of however many frames writers
// appended meanwhile, and Close's is the last.
func (c *Conn) flusher() {
	defer close(c.flushed)
	var spare []byte
	for {
		select {
		case <-c.quit:
			c.flush(spare, true)
			return
		case <-c.flushReq:
		}
		// With batching on, yield before flushing: the writers of a
		// fan-out burst (64 scatter results, say) are runnable but
		// staggered, and a scheduler pass lets them buffer their frames so
		// the burst leaves in one syscall. Keep yielding while the buffer
		// is still growing (bounded, so a steady writer cannot starve the
		// flush); each pass costs well under a µs when the connection is
		// quiet. A frame is never left unflushed, only briefly deferred. A
		// pass the read loop asked for has its burst already (see held).
		c.passes.Add(1)
		if !c.gathered.Swap(false) && c.batchWrites.Load() {
			seen := uint64(0) // a pass starts with at least one frame buffered
			for i := 0; i < 4; i++ {
				runtime.Gosched()
				n := c.frames.Load()
				if n == seen {
					break
				}
				seen = n
			}
		}
		spare = c.flush(spare, false)
	}
}

// flush swaps out for spare and writes what writers appended since the last
// pass, in one write outside wmu: under the write timeout, or closeGrace on
// the last pass. A failed write is latched and closes the socket, so the
// read loop ends and the connection's loss path runs, as for a cut. It
// returns the next pass's spare.
func (c *Conn) flush(spare []byte, last bool) []byte {
	c.wmu.Lock()
	batch, err := c.out, c.flushErr
	c.out = spare[:0]
	c.wmu.Unlock()
	if len(batch) > 0 && err == nil {
		d := c.writeTimeout
		if last {
			d = closeGrace
		}
		if err = c.armWrite(d); err == nil {
			_, err = c.nc.Write(batch)
		}
		if err != nil {
			c.wmu.Lock()
			c.flushErr = err
			c.wmu.Unlock()
			_ = c.nc.Close()
		}
	}
	if cap(batch) > maxKeptBuf {
		return nil // one large frame does not pin its buffer
	}
	return batch[:0]
}

// release ends the read loop's hold (see held), nudging the flusher if a
// frame was buffered under it. Called by the reader only.
func (c *Conn) release() {
	if c.held.Swap(false) && c.gathered.Load() {
		c.nudge()
	}
}

// NextFrame is ReadFrame for the connection's read loop — the goroutine that
// reads it for as long as it lives and handles each frame before it reads on
// (the host's session loop, the client's demultiplexer). A frame written
// while the loop handles one, an OP-RESULT its post committed say, waits in
// out, with whatever else accrues, until the loop nudges the flusher just
// before its next read waits for the peer; a frame written while it waits
// nudges the flusher itself. The loop always reads again or closes — as it
// does on an error — and Close's last pass writes what is buffered, so no
// frame is stranded, and the loop itself never writes.
func (c *Conn) NextFrame() (t MsgType, stream, seq uint64, m any, err error) {
	t, stream, seq, m, err = c.ReadFrame()
	c.held.Store(err == nil)
	return t, stream, seq, m, err
}

// ErrMalformed marks a ReadFrame failure that is the payload's fault, not
// the transport's: the frame arrived whole but did not decode as its type.
// The connection is still in sync (the next frame is readable), which is
// what lets the host handshake answer a bad HELLO instead of just closing.
var ErrMalformed = errors.New("wire: malformed payload")

// ReadFrame reads one framed message and decodes it with the connection's
// negotiated codec, returning a pointer to the concrete message struct (see
// msgTable). The struct is the connection's own, one per message type, and
// is valid until the next ReadFrame — the bufio.Scanner.Bytes contract: the
// reader copies what it keeps, by value, before it reads on (every field is
// assigned or reset by each decode, so nothing of an earlier frame shows
// through). What the struct points to — values, slices, an ErrInfo — is
// built per frame and fully copied out of the read buffer (a role, process
// or tag name possibly once, for all the frames of the connection that
// carry it), so a copy of the struct stays good and the caller never sees
// raw payload bytes. A payload that does not decode yields the frame's type
// and an error wrapping ErrMalformed.
func (c *Conn) ReadFrame() (t MsgType, stream, seq uint64, m any, err error) {
	// A closed connection delivers nothing more, not even frames it had
	// buffered: the host closes a connection a RESUME superseded, and what
	// that connection's reader still handled the client would replay.
	select {
	case <-c.quit:
		return 0, 0, 0, nil, net.ErrClosed
	default:
	}
	for {
		sweep, err := c.armRead(len(c.hdr))
		if err != nil {
			return 0, 0, 0, nil, err
		}
		got, err := io.ReadFull(c.br, c.hdr[:])
		if err == nil {
			break
		}
		// A wait that LastCall cut short, between frames, was not a look at
		// the socket: look once, under the sweep's deadline.
		if got == 0 && !sweep && errors.Is(err, os.ErrDeadlineExceeded) && c.onLastCall() {
			continue
		}
		return 0, 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n < 1 || n > MaxFrame {
		return 0, 0, 0, nil, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, MaxFrame)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	body := c.rbuf[:n]
	if n > maxKeptBuf {
		c.rbuf = nil
	}
	if _, err := c.armRead(int(n)); err != nil {
		return 0, 0, 0, nil, err
	}
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, 0, 0, nil, err
	}
	t = MsgType(body[0])
	stream, seq, m, err = parsePayload(c.version, t, body[1:], &c.dec)
	if err != nil {
		return t, 0, 0, nil, fmt.Errorf("%w: %s: %w", ErrMalformed, t, err)
	}
	return t, stream, seq, m, nil
}

func clampVersion(v int) int { return min(max(v, Version), MaxVersion) }

// ClientHandshakeV runs the client side of the handshake: it offers every
// version in [Version, maxVersion] (clamped to [Version, MaxVersion]) and
// accepts whichever the host picks, recording it on the connection (see
// Conn.Version). A host that predates version negotiation ignores the
// MaxVersion field and acks v1 — the compatible fallback. script, when
// non-empty, asserts the served script's name. A client that can speak v2
// also advertises session resumption; a host that supports it (and picks
// v2) mints a session token into the returned HelloAck, every other host
// ignores the flag.
func ClientHandshakeV(c *Conn, script string, maxVersion int) (HelloAck, error) {
	maxVersion = clampVersion(maxVersion)
	hello := &Hello{Magic: Magic, Version: Version, MaxVersion: maxVersion, Script: script, Resume: maxVersion >= 2}
	if err := c.WriteFrame(MsgHello, 0, 0, hello); err != nil {
		return HelloAck{}, err
	}
	t, _, _, m, err := c.ReadFrame()
	if err != nil {
		return HelloAck{}, err
	}
	switch m := m.(type) {
	case *HelloAck:
		if m.Version < Version || m.Version > maxVersion {
			return HelloAck{}, fmt.Errorf("wire: host picked protocol v%d, client offered v%d..v%d", m.Version, Version, maxVersion)
		}
		c.version = m.Version
		countConn(m.Version)
		return *m, nil
	case *Overloaded:
		return HelloAck{}, &core.OverloadError{
			Reason:     m.Msg,
			RetryAfter: time.Duration(m.RetryAfterMS) * time.Millisecond,
		}
	case *ProtoError:
		return HelloAck{}, fmt.Errorf("wire: host rejected handshake: %s", m.Msg)
	default:
		return HelloAck{}, fmt.Errorf("wire: unexpected %s during handshake", t)
	}
}

// ServerHandshakeV runs the host side of the handshake: it validates the
// client's HELLO against the served script name and picks the highest
// version both sides speak (at most maxVersion, clamped to [Version,
// MaxVersion]), replying MsgHelloAck and recording the version on the
// connection, or replying MsgError and returning an error. Clients that
// don't advertise MaxVersion — every pre-v2 client — negotiate v1. After
// negotiation succeeds, decorate (when non-nil) may add optional fields — a
// resume token, the heartbeat-timeout advert — to the outgoing ack based on
// the client's Hello and the negotiated version (already in ack.Version).
// The client's Hello is returned so the host can key behavior off its
// capability flags.
func ServerHandshakeV(c *Conn, script string, maxVersion int, decorate func(h Hello, ack *HelloAck)) (Hello, error) {
	maxVersion = clampVersion(maxVersion)
	t, _, _, m, err := c.ReadFrame()
	if err != nil && !errors.Is(err, ErrMalformed) {
		return Hello{}, err
	}
	if t != MsgHello {
		return Hello{}, c.reject(fmt.Sprintf("expected HELLO, got %s", t))
	}
	if err != nil {
		return Hello{}, c.reject("malformed HELLO")
	}
	h := *m.(*Hello)
	if h.Magic != Magic {
		return Hello{}, c.reject("bad magic")
	}
	clientMax := max(h.MaxVersion, h.Version)
	if h.Version > maxVersion || clientMax < Version {
		return Hello{}, c.reject(fmt.Sprintf("host speaks protocol v%d..v%d, client v%d..v%d", Version, maxVersion, h.Version, clientMax))
	}
	if h.Script != "" && h.Script != script {
		return Hello{}, c.reject(fmt.Sprintf("host serves script %q, client wants %q", script, h.Script))
	}
	ack := HelloAck{Version: min(clientMax, maxVersion), Script: script}
	if decorate != nil {
		decorate(h, &ack)
	}
	if err := c.WriteFrame(MsgHelloAck, 0, 0, &ack); err != nil {
		return Hello{}, err
	}
	c.version = ack.Version
	countConn(ack.Version)
	return h, nil
}

func (c *Conn) reject(msg string) error {
	_ = c.WriteFrame(MsgError, 0, 0, &ProtoError{Msg: msg})
	return fmt.Errorf("wire: handshake rejected: %s", msg)
}

// EncodeRoleRef renders a role reference for the wire.
func EncodeRoleRef(r ids.RoleRef) string { return r.String() }

// DecodeRoleRef parses a wire role reference.
func DecodeRoleRef(s string) (ids.RoleRef, error) { return ids.ParseRoleRef(s) }

// EncodeWith renders partner constraints for the wire. Nil (unconstrained)
// sets are dropped: absence of a constraint and a nil set mean the same
// thing on both sides.
func EncodeWith(with map[ids.RoleRef]ids.PIDSet) map[string][]string {
	if len(with) == 0 {
		return nil
	}
	out := make(map[string][]string, len(with))
	for r, set := range with {
		if set == nil {
			continue
		}
		pids := make([]string, 0, len(set))
		for _, p := range set.Sorted() {
			pids = append(pids, string(p))
		}
		out[r.String()] = pids
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// DecodeWith parses wire partner constraints.
func DecodeWith(with map[string][]string) (map[ids.RoleRef]ids.PIDSet, error) {
	if len(with) == 0 {
		return nil, nil
	}
	out := make(map[ids.RoleRef]ids.PIDSet, len(with))
	for rs, pids := range with {
		r, err := ids.ParseRoleRef(rs)
		if err != nil {
			return nil, fmt.Errorf("wire: partner constraint: %w", err)
		}
		set := make(ids.PIDSet, len(pids))
		for _, p := range pids {
			set[ids.PID(p)] = struct{}{}
		}
		out[r] = set
	}
	return out, nil
}
