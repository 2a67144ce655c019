package wire

import (
	"errors"
	"net"
	"reflect"
	"testing"
)

// v2Pipe returns the two ends of an in-memory v2 connection. net.Pipe has
// no buffer, so whoever writes needs the other end drained concurrently.
func v2Pipe(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ca, cb := pipeConns(t)
	ca.SetVersion(2)
	cb.SetVersion(2)
	return ca, cb
}

// drain reads n frames from c in the background and delivers their
// sequence IDs, in arrival order, once all n (or an error) arrived.
func drain(c *Conn, n int) <-chan []uint64 {
	out := make(chan []uint64, 1)
	go func() {
		var seqs []uint64
		for len(seqs) < n {
			_, _, seq, _, err := c.ReadFrame()
			if err != nil {
				break
			}
			seqs = append(seqs, seq)
		}
		out <- seqs
	}()
	return out
}

// sendN writes session frames (stream 1) with sequence IDs from..to, each
// carrying size bytes of value.
func sendN(t *testing.T, s *Session, from, to uint64, size int) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := s.WriteFrame(MsgSend, 1, seq, &Send{To: "r", Val: make([]byte, size)}); err != nil {
			t.Fatalf("session write %d: %v", seq, err)
		}
	}
}

func seqRange(from, to uint64) []uint64 {
	var out []uint64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

// TestSessionResumeReplaysUnackedSuffix checks the exactly-once core: a
// resume retransmits frames peerRecv+1..sent — including those written
// while detached — in order, and prunes what the count proves arrived.
func TestSessionResumeReplaysUnackedSuffix(t *testing.T) {
	c1, p1 := v2Pipe(t)
	s := NewSession(c1, "tok", 0)
	got := drain(p1, 5)
	sendN(t, s, 1, 5, 8)
	if seqs := <-got; !reflect.DeepEqual(seqs, seqRange(1, 5)) {
		t.Fatalf("first transport saw %v", seqs)
	}

	s.Detach()
	c1.Close()
	sendN(t, s, 6, 7, 8) // buffered in the ring, no transport to fail on
	if s.Conn() != nil || len(s.ring) != 7 {
		t.Fatalf("detached session: conn %v, ring %d frames, want nil and 7", s.Conn(), len(s.ring))
	}

	c2, p2 := v2Pipe(t)
	got = drain(p2, 5)
	if err := s.Resume(c2, 3); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	// A stream-0 frame behind the replay marks its end: the peer must see
	// exactly 4..7 before it.
	if err := s.WriteFrame(MsgHeartbeat, 0, 0, &Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	if seqs := <-got; !reflect.DeepEqual(seqs, append(seqRange(4, 7), 0)) {
		t.Fatalf("replay delivered %v, want 4..7 then the heartbeat", seqs)
	}
	if s.Conn() != c2 || len(s.ring) != 4 || s.ring[0].idx != 4 {
		t.Fatalf("after resume: ring holds %d frames from idx %d, want 4 from 4", len(s.ring), s.ring[0].idx)
	}
	s.PeerAck(7)
	if len(s.ring) != 0 || s.ringSize != 0 {
		t.Fatalf("ack of everything left %d frames (%d bytes)", len(s.ring), s.ringSize)
	}
}

// TestSessionRingOverflowDooms checks the bounded-memory contract: a
// backlog past the byte cap stops retention for good, frames keep flowing,
// and the session refuses to resume.
func TestSessionRingOverflowDooms(t *testing.T) {
	c1, p1 := v2Pipe(t)
	s := NewSession(c1, "tok", 100)
	got := drain(p1, 4)
	sendN(t, s, 1, 4, 40)
	if seqs := <-got; !reflect.DeepEqual(seqs, seqRange(1, 4)) {
		t.Fatalf("transport saw %v; a doomed session must still deliver", seqs)
	}
	if !s.Doomed() || len(s.ring) != 0 || s.ringSize != 0 || s.sent != 4 {
		t.Fatalf("doomed %v, ring %d frames / %d bytes, sent %d", s.Doomed(), len(s.ring), s.ringSize, s.sent)
	}
	s.Detach()
	c2, _ := v2Pipe(t)
	if err := s.Resume(c2, 4); !errors.Is(err, ErrSessionDoomed) {
		t.Fatalf("Resume of a doomed session = %v, want ErrSessionDoomed", err)
	}
	if s.Conn() != nil {
		t.Fatal("refused resume attached the transport")
	}
}

// TestSessionResumeInvalid checks the two receipt states no replay can
// satisfy: the peer claims more than was sent, or needs frames an earlier
// ack already pruned.
func TestSessionResumeInvalid(t *testing.T) {
	c1, p1 := v2Pipe(t)
	s := NewSession(c1, "tok", 0)
	got := drain(p1, 5)
	sendN(t, s, 1, 5, 8)
	<-got
	s.Detach()
	c2, _ := v2Pipe(t)
	if err := s.Resume(c2, 6); !errors.Is(err, ErrResumeInvalid) {
		t.Fatalf("peerRecv > sent: %v, want ErrResumeInvalid", err)
	}
	s.PeerAck(3)
	if err := s.Resume(c2, 1); !errors.Is(err, ErrResumeInvalid) {
		t.Fatalf("ring gap: %v, want ErrResumeInvalid", err)
	}
	if s.Conn() != nil {
		t.Fatal("refused resume attached the transport")
	}
}

// TestSessionControlFramesUncounted checks stream-0 traffic stays outside
// the receipt state: written through when attached, dropped when not,
// never counted or retained — including the ACKs MaybeAck emits.
func TestSessionControlFramesUncounted(t *testing.T) {
	c1, p1 := v2Pipe(t)
	s := NewSession(c1, "tok", 0)
	acks := make(chan uint64, 1)
	go func() {
		for i := 0; i < 2; i++ {
			typ, _, _, m, err := p1.ReadFrame()
			if err != nil {
				return
			}
			if typ == MsgAck {
				acks <- m.(*Ack).Count
			}
		}
	}()
	if err := s.WriteFrame(MsgHeartbeat, 0, 0, &Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ackEvery; i++ {
		s.MaybeAck()
	}
	if n := <-acks; n != ackEvery || s.RecvCount() != ackEvery {
		t.Fatalf("peer acked %d, RecvCount %d, want %d", n, s.RecvCount(), ackEvery)
	}
	if s.sent != 0 || len(s.ring) != 0 {
		t.Fatalf("control frames counted: sent %d, ring %d", s.sent, len(s.ring))
	}
	s.Detach()
	if err := s.WriteFrame(MsgBye, 0, 0, &Bye{}); err != nil {
		t.Fatalf("control write while detached = %v, want a silent drop", err)
	}
	if s.sent != 0 || len(s.ring) != 0 {
		t.Fatalf("dropped control frame counted: sent %d, ring %d", s.sent, len(s.ring))
	}
}

// TestSessionReplayInterrupted checks a transport that dies mid-replay
// leaves the session detached with its ring intact, so the next resume —
// told how far the peer really got — sends just the rest.
func TestSessionReplayInterrupted(t *testing.T) {
	s := NewSession(nil, "tok", 0)
	// 10 KiB frames: six of them overrun every buffer between the writer
	// and a reader that stopped, so the replay must hit the dead transport.
	sendN(t, s, 1, 6, 10<<10)

	a, b := net.Pipe()
	c2, p2 := NewConn(a), NewConn(b)
	c2.SetVersion(2)
	p2.SetVersion(2)
	got := make(chan []uint64, 1)
	go func() {
		_, _, seq, _, _ := p2.ReadFrame()
		p2.Close() // the peer got frame 1, then the transport died
		got <- []uint64{seq}
	}()
	err := s.Resume(c2, 0)
	if err == nil || errors.Is(err, ErrResumeInvalid) || errors.Is(err, ErrSessionDoomed) {
		t.Fatalf("interrupted replay = %v, want the transport's error", err)
	}
	c2.Close()
	if seqs := <-got; !reflect.DeepEqual(seqs, seqRange(1, 1)) {
		t.Fatalf("dying transport delivered %v, want frame 1", seqs)
	}
	if s.Conn() != nil || len(s.ring) != 6 {
		t.Fatalf("after interrupted replay: conn %v, ring %d frames, want nil and 6", s.Conn(), len(s.ring))
	}

	c3, p3 := v2Pipe(t)
	rest := drain(p3, 5)
	if err := s.Resume(c3, 1); err != nil {
		t.Fatalf("second Resume: %v", err)
	}
	if seqs := <-rest; !reflect.DeepEqual(seqs, seqRange(2, 6)) {
		t.Fatalf("second replay delivered %v, want 2..6", seqs)
	}
}
