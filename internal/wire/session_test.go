package wire

import (
	"errors"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"
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
	if err := s.Resume(c2, 3, nil); err != nil {
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
	if err := s.Resume(c2, 4, nil); !errors.Is(err, ErrSessionDoomed) {
		t.Fatalf("Resume of a doomed session = %v, want ErrSessionDoomed", err)
	}
	if s.Conn() != nil {
		t.Fatal("refused resume attached the transport")
	}
}

// TestSessionResumeInvalid checks the receipt states no replay can satisfy:
// the peer claims more than was sent, or needs frames an earlier ack already
// pruned — some of the suffix, or (an ack ahead of the count) all of it.
func TestSessionResumeInvalid(t *testing.T) {
	c1, p1 := v2Pipe(t)
	s := NewSession(c1, "tok", 0)
	got := drain(p1, 5)
	sendN(t, s, 1, 5, 8)
	<-got
	s.Detach()
	c2, _ := v2Pipe(t)
	if err := s.Resume(c2, 6, nil); !errors.Is(err, ErrResumeInvalid) {
		t.Fatalf("peerRecv > sent: %v, want ErrResumeInvalid", err)
	}
	s.PeerAck(3)
	if err := s.Resume(c2, 1, nil); !errors.Is(err, ErrResumeInvalid) {
		t.Fatalf("ring gap: %v, want ErrResumeInvalid", err)
	}
	s.PeerAck(9) // ahead of everything sent: the ring is empty, and frame 5 still owed
	if err := s.Resume(c2, 4, nil); !errors.Is(err, ErrResumeInvalid) {
		t.Fatalf("emptied ring: %v, want ErrResumeInvalid", err)
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
// leaves the ring intact: Resume hands the replay to the connection and
// returns, the connection's reader finds the break, and the next resume —
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
	if err := s.Resume(c2, 0, nil); err != nil {
		t.Fatalf("Resume onto a transport that dies mid-replay: %v", err)
	}
	if seqs := <-got; !reflect.DeepEqual(seqs, seqRange(1, 1)) {
		t.Fatalf("dying transport delivered %v, want frame 1", seqs)
	}
	if _, _, _, _, err := c2.ReadFrame(); err == nil {
		t.Fatal("the dead transport's reader read a frame")
	}
	s.Detach() // what the reader's owner does on the break
	c2.Close()
	if s.Conn() != nil || len(s.ring) != 6 {
		t.Fatalf("after interrupted replay: conn %v, ring %d frames, want nil and 6", s.Conn(), len(s.ring))
	}

	c3, p3 := v2Pipe(t)
	rest := drain(p3, 6)
	if err := s.Resume(c3, 1, nil); err != nil {
		t.Fatalf("second Resume: %v", err)
	}
	// A stream-0 frame behind the replay marks its end: exactly 2..6 before it.
	if err := s.WriteFrame(MsgHeartbeat, 0, 0, &Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	if seqs := <-rest; !reflect.DeepEqual(seqs, append(seqRange(2, 6), 0)) {
		t.Fatalf("second replay delivered %v, want 2..6 and nothing more", seqs)
	}
}

// sessionPeer is the far end of a fuzzed session: it reads every frame of
// every transport the session is given and keeps the receipt state a real
// peer keeps — the count of session frames it accepted. A frame it is deaf to
// was written to the transport and lost in the blip that follows.
type sessionPeer struct {
	t      *testing.T
	s      *Session
	frames chan peerFrame // what the current transport's reader read
	local  *Conn          // the session's end of the current transport, nil while cut
	count  uint64         // session frames accepted, all of them in order
	accept int            // how many more the peer accepts before going deaf; < 0: all
}

type peerFrame struct {
	typ   MsgType
	seq   uint64
	count uint64 // of an ACK
}

// attach makes a transport, starts its reader and returns the session's end.
func (p *sessionPeer) attach() *Conn {
	local, remote := v2Pipe(p.t)
	frames := make(chan peerFrame, 16)
	go func() {
		defer close(frames)
		for {
			typ, _, seq, m, err := remote.ReadFrame()
			if err != nil {
				return
			}
			f := peerFrame{typ: typ, seq: seq}
			if ack, ok := m.(*Ack); ok {
				f.count = ack.Count
			}
			frames <- f
		}
	}()
	p.frames, p.local = frames, local
	return local
}

// cut detaches the session and closes the transport; the peer hears again on
// the next one.
func (p *sessionPeer) cut() {
	p.s.Detach()
	if p.local != nil {
		p.local.Close()
		p.local, p.accept = nil, -1
	}
}

// settle writes a stream-0 marker behind whatever the session has written and
// returns the frames the peer read before it, in order.
func (p *sessionPeer) settle() []peerFrame {
	p.t.Helper()
	if err := p.s.WriteFrame(MsgBye, 0, 0, &Bye{}); err != nil {
		p.t.Fatalf("marker: %v", err)
	}
	var read []peerFrame
	for {
		select {
		case f, ok := <-p.frames:
			if !ok {
				p.t.Fatalf("transport ended before the marker, after %v", read)
			}
			if f.typ == MsgBye {
				return read
			}
			read = append(read, f)
		case <-time.After(10 * time.Second):
			p.t.Fatalf("no marker after 10s; the peer read %v", read)
		}
	}
}

// FuzzSessionReplay drives one Session through an arbitrary program of
// writes, receipts, peer ACKs, cuts and resumes — the counts in the ACKs and
// the RESUMEs arbitrary too, honest or not — against a peer that keeps a real
// peer's receipt state. Properties: a live transport delivers every session
// frame once and in order; a resume told r either replays exactly frames
// r+1..sent, once each and in order, or reports ErrSessionDoomed (the ring
// overflowed) or ErrResumeInvalid (r is ahead of what was sent, or behind what
// an ACK or an earlier resume let the ring drop) and leaves the session
// detached; receipts are acknowledged on cadence with the right counts; and
// nothing panics or hangs. The program is pairs of bytes, an operation and its
// argument, behind one byte that picks the ring's cap; a count argument below
// 200 is taken as it is and one from 200 up as the peer's true count ±28.
func FuzzSessionReplay(f *testing.F) {
	const (
		W = iota // write one session frame, arg%64 bytes of value
		A        // the peer acknowledges a count
		D        // cut: detach and close the transport
		L        // the peer accepts arg%8 more frames, then hears nothing until the next cut
		R        // arg session frames arrive
		S        // reconnect: RESUME carries a count

		honest = 228
	)
	// The five cases of the tests above, as programs, and two of their kin.
	f.Add([]byte{0, W, 8, W, 8, W, 8, W, 8, W, 8, D, 0, W, 8, W, 8, S, 3, A, 7})     // the unacked suffix, detached writes included
	f.Add([]byte{10, W, 40, W, 40, W, 40, W, 40, D, 0, S, 4})                        // the ring overflows
	f.Add([]byte{0, W, 8, W, 8, W, 8, W, 8, W, 8, D, 0, S, 6, A, 3, S, 1})           // ahead of sent; behind an ACK
	f.Add([]byte{0, R, 64, D, 0, R, 64, W, 8})                                       // receipts acked on cadence, attached only
	f.Add([]byte{0, D, 0, W, 30, W, 30, W, 30, L, 1, S, honest, D, 0, S, honest})    // a replay cut short
	f.Add([]byte{0, W, 8, W, 8, L, 0, W, 8, W, 8, D, 0, S, honest, A, honest, W, 8}) // frames lost in the blip
	f.Add([]byte{0, W, 8, W, 8, W, 8, A, 9, D, 0, S, 1})                             // an ACK ahead of everything, then a resume behind it

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		capBytes := 0
		if prog[0] > 0 {
			capBytes = 80 + 2*int(prog[0])
		}
		p := &sessionPeer{t: t, accept: -1}
		p.s = NewSession(p.attach(), "tok", capBytes)
		s := p.s
		var sent, recv, pruned uint64 // the model: frames written, receipts counted, the last index the ring let go
		countArg := func(b byte) uint64 {
			if b < 200 {
				return uint64(b)
			}
			return uint64(max(0, int(p.count)+int(b)-honest))
		}
		// live checks what the peer read off a live transport: the session
		// frames from next on, in order, of which it accepts what it may.
		live := func(read []peerFrame, next uint64) {
			t.Helper()
			for _, fr := range read {
				if fr.typ != MsgSend || fr.seq != next {
					t.Fatalf("the peer read %+v, want session frame %d", fr, next)
				}
				next++
				if p.accept != 0 {
					if fr.seq != p.count+1 {
						t.Fatalf("the peer accepts frame %d after %d frames: not exactly once, in order", fr.seq, p.count)
					}
					p.count++
					p.accept = max(p.accept-1, -1)
				}
			}
			if next != sent+1 {
				t.Fatalf("the peer read up to frame %d of %d sent", next-1, sent)
			}
		}
		for ops := prog[1:]; len(ops) >= 2 && sent < 64; ops = ops[2:] {
			switch op, arg := ops[0], ops[1]; op % 6 {
			case W:
				sent++
				if err := s.WriteFrame(MsgSend, 1, sent, &Send{To: "r", Val: make([]byte, arg%64)}); err != nil {
					t.Fatalf("write %d: %v", sent, err)
				}
				if p.local != nil {
					live(p.settle(), sent)
				}
			case A:
				n := countArg(arg)
				s.PeerAck(n)
				pruned = max(pruned, min(n, sent))
			case D:
				p.cut()
			case L: // a transport that lost a frame delivers none behind it
				if n := int(arg % 8); p.accept < 0 || n < p.accept {
					p.accept = n
				}
			case R:
				var acks []peerFrame
				for i := 0; i < int(arg); i++ {
					s.MaybeAck()
					if recv++; recv%ackEvery == 0 && p.local != nil {
						acks = append(acks, peerFrame{typ: MsgAck, count: recv})
					}
				}
				if s.RecvCount() != recv {
					t.Fatalf("RecvCount %d after %d receipts", s.RecvCount(), recv)
				}
				if p.local != nil {
					if read := p.settle(); !slices.Equal(read, acks) {
						t.Fatalf("%d receipts had the peer read %v, want the ACKs %v", arg, read, acks)
					}
				}
			case S:
				p.cut()
				r, wasDoomed := countArg(arg), s.Doomed()
				err := s.Resume(p.attach(), r, nil)
				switch {
				case wasDoomed:
					if !errors.Is(err, ErrSessionDoomed) {
						t.Fatalf("Resume(%d) of a doomed session: %v", r, err)
					}
				case r > sent || (r < sent && r < pruned):
					if !errors.Is(err, ErrResumeInvalid) {
						t.Fatalf("Resume(%d) with %d sent and the ring let go up to %d: %v, want ErrResumeInvalid", r, sent, pruned, err)
					}
				case err != nil:
					t.Fatalf("Resume(%d) with %d sent, ring from %d: %v", r, sent, pruned+1, err)
				}
				if err != nil {
					if s.Conn() != nil {
						t.Fatalf("Resume(%d) failed with %v and left a transport attached", r, err)
					}
					p.cut()
					continue
				}
				// The peer said r: that is what it has, whatever it had.
				p.count, pruned = r, max(pruned, r)
				live(p.settle(), r+1)
			}
			if doomed := s.Doomed(); doomed && (len(s.ring) != 0 || s.ringSize != 0) {
				t.Fatalf("a doomed session retains %d frames, %d bytes", len(s.ring), s.ringSize)
			}
		}
		p.cut()
	})
}

// Conn returns the session's current transport, nil while detached.
func (s *Session) Conn() *Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}
