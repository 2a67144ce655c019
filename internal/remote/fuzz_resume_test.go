package remote

import (
	"context"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/wire"
)

// parkedHost serves a pair script with one parked session: its client
// enrolled as b, was assigned (the host sent OFFER-ACK: one session frame
// each way), and lost its connection. It returns the session's token and a
// teardown that stops everything the setup started.
func parkedHost(t *testing.T) (h *Host, token string, stop func()) {
	in := core.NewInstance(pairScript("parked", func(rc core.Ctx) error {
		_, err := rc.Recv(ids.Role("b"))
		return err
	}))
	h = NewHost(in, HostConfig{ResumeWindow: time.Minute})
	if err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go h.Serve()
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		_, _ = in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
	}()
	stop = func() {
		h.Close()
		in.Close()
		<-aDone
	}
	c1 := resumeDial(t, h)
	token = c1.ack.ResumeToken
	if err := c1.c.WriteFrame(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"}); err != nil {
		stop()
		t.Fatal(err)
	}
	if typ, _, _, _, err := c1.c.ReadFrame(); err != nil || typ != wire.MsgOfferAck {
		stop()
		t.Fatalf("enrolling b: %s (%v), want OFFER-ACK", typ, err)
	}
	c1.c.Close()
	for deadline := time.Now().Add(5 * time.Second); !sessionParked(h, token); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("the session never parked")
		}
	}
	return h, token, stop
}

type resumeConn struct {
	c   *wire.Conn
	ack wire.HelloAck
}

func resumeDial(t *testing.T, h *Host) resumeConn {
	t.Helper()
	nc, err := net.Dial("tcp", h.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	ack, err := wire.ClientHandshakeV(c, "parked", wire.MaxVersion)
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	c.SetReadTimeout(5 * time.Second)
	return resumeConn{c, ack}
}

// sessionParked reports whether the session named token is registered,
// alive and without a connection.
func sessionParked(h *Host, token string) bool {
	h.mu.Lock()
	s := h.sessions[token]
	h.mu.Unlock()
	if s == nil {
		return false
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	return !s.done && s.cur == nil
}

// resume sends one RESUME as the first frame of a fresh connection and
// returns the connection and the host's answer.
func resume(t *testing.T, h *Host, token string, recv uint64) (*wire.Conn, wire.MsgType, any) {
	t.Helper()
	rc := resumeDial(t, h)
	if err := rc.c.WriteFrame(wire.MsgResume, 0, 0, &wire.Resume{Token: token, RecvCount: recv}); err != nil {
		t.Fatal(err)
	}
	typ, _, _, m, err := rc.c.ReadFrame()
	if err != nil {
		t.Fatalf("RESUME %q/%d: no answer: %v", token, recv, err)
	}
	return rc.c, typ, m
}

// FuzzHostResume offers a host that holds one parked session an arbitrary
// RESUME as the first frame of a handshaken v2 connection: the session's own
// token or another, with any suffix, and any receipt count. Each input is
// either adopted — answered RESUME-ACK with the session's own count (one
// frame received: the ENROLL), and the session's unacked frames replayed —
// or refused with a protocol error that leaves the parked session intact, so
// that the session's own RESUME is still adopted afterwards. A connection the
// host adopted is the session's only one: the next adoption closes it. No
// input panics the host or leaves a goroutine behind.
//
// The seeds are the RESUMEs of resume_test.go: the session's own token with
// the count of a client that received nothing (TestResumeFindsSession-
// CutBeforeFirstEnroll) or everything (TestResumeSupersedesReaderHoldingFrame),
// and a token the host does not know (TestIdleParkedSessionExpires); and the
// counts either side of what the host sent.
func FuzzHostResume(f *testing.F) {
	f.Add(true, []byte{}, uint64(0))
	f.Add(true, []byte{}, uint64(1))
	f.Add(false, []byte("0123456789abcdef0123456789abcdef"), uint64(0))
	f.Add(true, []byte{}, uint64(2))
	f.Add(true, []byte("x"), uint64(1))
	f.Add(false, []byte{}, uint64(0))
	f.Add(true, []byte{}, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, own bool, suffix []byte, recv uint64) {
		before := runtime.NumGoroutine()
		h, token, stop := parkedHost(t)
		defer func() {
			stop()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the host stopped, %d before it started", runtime.NumGoroutine(), before)
				}
			}
		}()
		sent := token + string(suffix)
		if !own {
			sent = string(suffix)
		}
		valid := sent == token && recv <= 1

		c, typ, m := resume(t, h, sent, recv)
		defer c.Close()
		switch {
		case valid:
			if ack, ok := m.(*wire.ResumeAck); !ok || ack.RecvCount != 1 {
				t.Fatalf("RESUME %q/%d answered %s %+v, want RESUME-ACK counting the ENROLL", sent, recv, typ, m)
			}
			if recv == 0 { // the OFFER-ACK, replayed
				if typ, stream, _, _, err := c.ReadFrame(); err != nil || typ != wire.MsgOfferAck || stream != 1 {
					t.Fatalf("after the RESUME-ACK: %s on stream %d (%v), want the OFFER-ACK replayed", typ, stream, err)
				}
			}
		case typ != wire.MsgError:
			t.Fatalf("RESUME %q/%d answered %s %+v, want a protocol error", sent, recv, typ, m)
		case !sessionParked(h, token):
			t.Fatalf("RESUME %q/%d was refused, and the parked session with it", sent, recv)
		}

		// The session's own RESUME is adopted now, and retires any connection
		// adopted before it.
		c2, typ, m := resume(t, h, token, 1)
		defer c2.Close()
		if ack, ok := m.(*wire.ResumeAck); !ok || ack.RecvCount != 1 {
			t.Fatalf("the session's own RESUME after %q/%d answered %s %+v, want RESUME-ACK", sent, recv, typ, m)
		}
		if valid {
			if _, _, _, _, err := c.ReadFrame(); err == nil {
				t.Fatal("the first adopter's connection still delivers frames after a second adoption")
			}
		}
	})
}
