// Session: resumable delivery on top of a swappable Conn.
//
// A Session owns the frames of one logical v2 conversation across any
// number of transport connections. Session frames — every frame with a
// non-zero stream ID — are counted cumulatively per direction and retained,
// fully encoded, in a byte-capped retransmit ring until the peer
// acknowledges them (MsgAck, or the receipt count carried by a
// RESUME/RESUME-ACK exchange). Because TCP preserves order within each
// direction, the pair of cumulative counts is a complete receipt state:
// after a connection loss each side replays exactly the suffix of its ring
// beyond the peer's count, so every frame lost in the blip arrives exactly
// once and none arrives twice — the dedup happens at the sender, by not
// retransmitting what the count proves was received.
//
// Stream-0 frames (heartbeats, acks, BYE, protocol errors) are control
// traffic bound to one transport: they are written through when a
// connection is attached and dropped silently while detached, and are
// neither counted nor retained.
//
// The ring is bounded: a session whose unacked backlog would exceed its
// byte cap is marked doomed — it stops retaining frames and can never be
// resumed, so a later connection loss degrades to exactly the pre-
// resumption abort behavior instead of unbounded memory growth.
package wire

import (
	"errors"
	"fmt"
	"sync"

	"github.com/scriptabs/goscript/internal/metrics"
)

// defaultRingBytes caps a session's unacked retransmit backlog (each
// direction keeps its own ring at this cap), and is what both sides of every
// connection run with: only tests pass NewSession a cap of their own. Ops are request/response, so
// steady-state backlogs are a handful of small frames; the cap only bites
// on pathological pile-ups, where dooming the session (degrade to abort)
// beats buffering without bound.
const defaultRingBytes = 1 << 20

// ackEvery is the receipt-count cadence at which MaybeAck emits an ACK
// frame: often enough to keep the peer's ring near-empty, rare enough to
// stay invisible next to the op traffic it acknowledges.
const ackEvery = 64

var (
	framesRetransmitted = metrics.Get(metrics.WireFramesRetransmitted)
	framesDeduped       = metrics.Get(metrics.WireFramesDeduped)
)

// ErrSessionDoomed marks a session whose retransmit ring overflowed its
// byte cap: it can no longer guarantee exactly-once replay and must not be
// resumed.
var ErrSessionDoomed = errors.New("wire: session retransmit ring overflowed")

// ErrResumeInvalid marks a resume whose receipt state cannot be satisfied —
// the peer claims more frames than were ever sent, or the ring no longer
// holds the suffix it needs. It is terminal.
var ErrResumeInvalid = errors.New("wire: resume receipt state unsatisfiable")

type sessFrame struct {
	idx   uint64 // cumulative send count as of this frame (1-based)
	frame []byte // fully encoded: length header + type byte + payload
}

// Session is safe for concurrent use. The read side (counting and acking)
// is driven by the owner's single reader goroutine; writes may come from
// any goroutine, exactly as on a bare Conn.
type Session struct {
	token string
	cap   int

	// mu also orders session-frame emission (ring append + transport append)
	// and replay, so the wire order of session frames always matches their
	// ring (count) order — the invariant the cumulative receipt counts depend
	// on. Appending to a Conn never waits on the peer, so both happen under
	// it.
	mu       sync.Mutex
	c        *Conn // current transport; nil while detached
	sent     uint64
	recv     uint64
	ring     []sessFrame // unacked session frames, oldest first
	ringSize int
	doomed   bool
}

// NewSession wraps c (which must have completed a v2 handshake) in a
// resumable session identified by token. capBytes <= 0 selects
// defaultRingBytes.
func NewSession(c *Conn, token string, capBytes int) *Session {
	if capBytes <= 0 {
		capBytes = defaultRingBytes
	}
	return &Session{token: token, cap: capBytes, c: c}
}

// Token returns the session token minted at the original handshake.
func (s *Session) Token() string { return s.token }

// Doomed reports whether the ring overflowed; a doomed session must be torn
// down (today's abort path) at the next connection loss.
func (s *Session) Doomed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doomed
}

// RecvCount returns the cumulative count of session frames received.
func (s *Session) RecvCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recv
}

// WriteFrame encodes and sends one frame. Session frames (stream != 0) are
// counted and retained for retransmission; while detached they buffer
// silently and flow when a connection is re-attached. Their transport
// errors are swallowed too — the frame is safe in the ring, and the
// reader side discovers the break and drives park/resume/teardown — so a
// transient loss never surfaces as a write error mid-performance.
// Stream-0 control frames write through (reporting transport errors, which
// is how the heartbeat pump detects a break) when attached and are dropped
// when not.
func (s *Session) WriteFrame(t MsgType, stream, seq uint64, m any) error {
	if stream == 0 {
		s.mu.Lock()
		c := s.c
		s.mu.Unlock()
		if c == nil {
			return nil
		}
		return c.WriteFrame(t, stream, seq, m)
	}

	// Encode once, into a buffer the ring can retain. Sessions only wrap v2
	// connections, so the codec version is fixed.
	buf, err := appendFrame(make([]byte, 0, 64), 2, t, stream, seq, m)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent++
	if !s.doomed {
		if s.ringSize+len(buf) > s.cap {
			// Over cap: stop retaining anything — replay can no longer be
			// complete, so the session is unresumable from here on.
			s.doomed = true
			s.ring, s.ringSize = nil, 0
		} else {
			s.ring = append(s.ring, sessFrame{idx: s.sent, frame: buf})
			s.ringSize += len(buf)
		}
	}
	if s.c != nil {
		_ = s.c.writeRaw(buf) // broken transport: the ring has the frame
	}
	return nil
}

// CountRecv records receipt of one session frame (the owner's reader calls
// it for every stream != 0 frame) and returns the new cumulative count.
func (s *Session) CountRecv() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recv++
	return s.recv
}

// MaybeAck counts one received session frame and acks on cadence (see AckAt).
func (s *Session) MaybeAck() { s.AckAt(s.CountRecv()) }

// AckAt sends the peer a cumulative ACK if n, a count CountRecv returned, falls
// on the cadence — every ackEvery frames — so it can prune its ring. Errors
// are swallowed: a failed ack is indistinguishable from a lost connection,
// which the reader discovers on its next read.
func (s *Session) AckAt(n uint64) {
	if n%ackEvery == 0 {
		s.mu.Lock()
		c := s.c
		s.mu.Unlock()
		if c != nil {
			_ = c.WriteFrame(MsgAck, 0, 0, &Ack{Count: n})
		}
	}
}

// PeerAck prunes every retained frame the peer's cumulative receipt count
// covers.
func (s *Session) PeerAck(count uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked(count)
}

func (s *Session) pruneLocked(count uint64) {
	i := 0
	for i < len(s.ring) && s.ring[i].idx <= count {
		s.ringSize -= len(s.ring[i].frame)
		i++
	}
	if i > 0 {
		s.ring = append(s.ring[:0:0], s.ring[i:]...)
	}
}

// Detach drops the current transport (which the caller closes): subsequent
// session writes buffer in the ring, control writes are dropped.
func (s *Session) Detach() {
	s.mu.Lock()
	s.c = nil
	s.mu.Unlock()
}

// Resume splices a freshly handshaken v2 connection into the session and
// retransmits the unacked suffix beyond peerRecv, the peer's cumulative
// receipt count from the RESUME/RESUME-ACK exchange. Frames the count
// proves were already received are pruned, not retransmitted (that pruning
// IS the dedup). ack, when non-nil, is the host's RESUME-ACK: it goes out
// once the count is found good, ahead of the retransmitted suffix. Fails —
// leaving the session detached, and nothing written — if the session is
// doomed, the count is ahead of what was ever sent, or the ring no longer
// covers the gap. A transport that dies mid-replay is not Resume's to see:
// the connection's reader finds it, and the next resume's counts replay
// the rest.
func (s *Session) Resume(c *Conn, peerRecv uint64, ack *ResumeAck) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doomed {
		return ErrSessionDoomed
	}
	if peerRecv > s.sent {
		return fmt.Errorf("%w: peer claims %d frames received, only %d sent", ErrResumeInvalid, peerRecv, s.sent)
	}
	deduped := uint64(0)
	for _, r := range s.ring {
		if r.idx <= peerRecv {
			deduped++
		}
	}
	s.pruneLocked(peerRecv)
	// The suffix must be there whole: an ACK ahead of this count (a peer that
	// lost its state, or lies) may have emptied the ring altogether.
	if peerRecv < s.sent && (len(s.ring) == 0 || s.ring[0].idx != peerRecv+1) {
		return fmt.Errorf("%w: retransmit ring gap (%d of %d sent retained, need idx %d)", ErrResumeInvalid, len(s.ring), s.sent, peerRecv+1)
	}
	s.c = c
	// A failed append means a dead transport, which its reader finds.
	if ack != nil {
		_ = c.WriteFrame(MsgResumeAck, 0, 0, ack)
	}
	for _, r := range s.ring {
		_ = c.writeRaw(r.frame)
	}
	framesDeduped.Add(deduped)
	framesRetransmitted.Add(uint64(len(s.ring)))
	return nil
}
