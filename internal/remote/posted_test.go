package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/wire"
)

// streamLog is a frameWriter that keeps what a stream was written: each
// frame's type and, for an OP-RESULT and a COMPLETE, a copy of the message.
// With fw set it passes each frame on, and returns what fw does.
type streamLog struct {
	fw        frameWriter
	mu        sync.Mutex
	types     []wire.MsgType
	results   []wire.OpResult
	completes []wire.Complete
}

func (l *streamLog) WriteFrame(t wire.MsgType, stream, seq uint64, m any) error {
	l.mu.Lock()
	l.types = append(l.types, t)
	switch m := m.(type) {
	case *wire.OpResult:
		l.results = append(l.results, *m)
	case *wire.Complete:
		l.completes = append(l.completes, *m)
	}
	l.mu.Unlock()
	if l.fw != nil {
		return l.fw.WriteFrame(t, stream, seq, m)
	}
	return nil
}

// count returns how many frames of type t were written.
func (l *streamLog) count(t wire.MsgType) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, w := range l.types {
		if w == t {
			n++
		}
	}
	return n
}

// result returns the i-th OP-RESULT, waiting for it.
func (l *streamLog) result(t *testing.T, i int) wire.OpResult {
	t.Helper()
	eventually(t, fmt.Sprintf("OP-RESULT %d", i+1), func() bool { return l.count(wire.MsgOpResult) > i })
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.results[i]
}

// postedRow is one row of the failure table for a posted op: remote b, on a
// session whose frames the log keeps, has posted a RECV from a, which plays
// in process with aBody; cause does to it what the row names.
type postedRow struct {
	opts  []core.Option
	aBody core.RoleBody
	// cause makes the fault; it returns whether the client is still there to
	// be told its enrollment's end (and so sends BODY-DONE after its op).
	cause func(t *testing.T, in *core.Instance, s *hostSession) (live bool)
	// op checks what the client's op returned; a what a's Enroll returned.
	op func(t *testing.T, res wire.OpResult)
	a  func(t *testing.T, err error)
}

// recvB is a body for a that waits for b's message.
func recvB(rc core.Ctx) error {
	_, err := rc.Recv(ids.Role("b"))
	return err
}

// abortedBlaming checks that err is the abort of a performance, blaming
// culprit for reason.
func abortedBlaming(culprit, reason string) func(t *testing.T, err error) {
	return func(t *testing.T, err error) {
		t.Helper()
		var ae *core.AbortError
		if !errors.As(err, &ae) || ae.Culprit.String() != culprit || ae.Reason != reason {
			t.Fatalf("%v, want an abort blaming %s for %q", err, culprit, reason)
		}
	}
}

// failedWith checks the op returned an error matching want.
func failedWith(want error) func(t *testing.T, res wire.OpResult) {
	return func(t *testing.T, res wire.OpResult) {
		t.Helper()
		if err := res.Err.Err(); !errors.Is(err, want) {
			t.Fatalf("the op returned %v, want %v", err, want)
		}
	}
}

// TestPostedOpFailures is the failure table's rows for a stream whose op is
// posted: the connection's reader posted it and went on, so nothing waits
// for it, and whoever fails it — or commits it — answers the client. Each
// cause is driven deterministically, as the reader, the host or the core
// would make it, and each row checks what the client's op returns, what the
// co-performer's Enroll returns, and that one terminal frame is written —
// none once the session is torn down, when nobody is there to read it.
func TestPostedOpFailures(t *testing.T) {
	const canceled = "enrollment canceled by enroller"
	closing := make(chan struct{})
	rows := map[string]postedRow{
		"CANCEL": {
			aBody: recvB,
			cause: func(_ *testing.T, _ *core.Instance, s *hostSession) bool {
				s.sever(s.markSevered(1, canceled))
				return false
			},
			op: failedWith(core.ErrPerformanceAborted),
			a:  abortedBlaming("b", canceled),
		},
		"flood": {
			aBody: recvB,
			cause: func(t *testing.T, _ *core.Instance, s *hostSession) bool {
				flooded := false
				for i := 0; i <= streamOpBacklog && !flooded; i++ {
					flooded = s.deliver(1, hostOp{typ: wire.MsgRecv, seq: uint64(i + 2), peer: "a"})
				}
				if !flooded {
					t.Fatal("no flood")
				}
				return false
			},
			op: failedWith(core.ErrPerformanceAborted),
			a:  abortedBlaming("b", "protocol violation: operation flood"),
		},
		"teardown": {
			aBody: recvB,
			cause: func(_ *testing.T, _ *core.Instance, s *hostSession) bool {
				s.teardown()
				return false
			},
			op: failedWith(core.ErrPerformanceAborted),
			a:  abortedBlaming("b", enrollerGone),
		},
		"deadline": {
			opts:  []core.Option{core.WithPerformanceDeadline(30 * time.Millisecond)},
			aBody: recvB,
			cause: func(*testing.T, *core.Instance, *hostSession) bool { return true },
			op:    failedWith(core.ErrPerformanceAborted),
			a:     abortedBlaming("a", "deadline exceeded"), // both wait in the fabric: the first in role order
		},
		"Drain": { // drain honours the performance: the op commits
			aBody: func(rc core.Ctx) error { return rc.Send(ids.Role("b"), "v") },
			cause: func(t *testing.T, in *core.Instance, _ *hostSession) bool {
				go in.Drain(context.Background()) //nolint:errcheck // returns once the performance ends
				eventually(t, "the instance to drain", in.Draining)
				return true
			},
			op: func(t *testing.T, res wire.OpResult) {
				if res.Err != nil || res.Val != "v" {
					t.Fatalf("the op returned %+v, want a's value", res)
				}
			},
			a: func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("a: %v", err)
				}
			},
		},
		"Close": {
			aBody: func(rc core.Ctx) error {
				close(closing)
				return recvB(rc)
			},
			cause: func(_ *testing.T, in *core.Instance, _ *hostSession) bool {
				<-closing
				time.Sleep(10 * time.Millisecond) // a is in its Recv
				in.Close()
				return true
			},
			op: failedWith(core.ErrClosed),
			a: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrClosed) {
					t.Fatalf("a: %v, want ErrClosed", err)
				}
			},
		},
		"OpDelay": { // the op reaches the fabric late, and commits
			opts:  []core.Option{core.WithFaultInjection(opFaults{delay: 30 * time.Millisecond})},
			aBody: func(rc core.Ctx) error { return rc.Send(ids.Role("b"), "v") },
			cause: func(*testing.T, *core.Instance, *hostSession) bool { return true },
			op: func(t *testing.T, res wire.OpResult) {
				if res.Err != nil || res.Val != "v" {
					t.Fatalf("the op returned %+v, want a's value", res)
				}
			},
			a: func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("a: %v", err)
				}
			},
		},
	}
	for name, row := range rows {
		t.Run(name, func(t *testing.T) {
			in := core.NewInstance(pairScript("posted", row.aBody), row.opts...)
			defer in.Close()
			h := NewHost(in, HostConfig{})
			defer h.Close()
			fw := &streamLog{}
			s := &hostSession{h: h, fw: fw, streams: make(map[uint64]*hostStream)}
			st := openTestStream(s, 1, wire.Enroll{PID: "B", Role: "b"})
			aErr := make(chan error, 1)
			go func() {
				_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
				aErr <- err
			}()
			eventually(t, "a's offer", func() bool { return in.PendingOffers() == 1 })
			s.offer(st) // the reader's ENROLL: the cast forms, and OFFER-ACK is written
			eventually(t, "b's OFFER-ACK", func() bool { return fw.count(wire.MsgOfferAck) == 1 })
			start := time.Now()
			s.deliver(1, hostOp{typ: wire.MsgRecv, seq: 1, peer: "a"}) // the reader's op: posted
			if d := time.Since(start); d > 20*time.Millisecond {
				t.Fatalf("the reader spent %v on the op", d)
			}

			live := row.cause(t, in, s)
			res := fw.result(t, 0)
			row.op(t, res)
			if live { // the client's body returns what its op did
				s.deliver(1, hostOp{typ: wire.MsgBodyDone, err: res.Err})
			}
			select {
			case err := <-aErr:
				row.a(t, err)
			case <-time.After(5 * time.Second):
				t.Fatal("a's Enroll never returned")
			}
			settleStats(t, h)
			want := 1
			if name == "teardown" {
				want = 0
			}
			if got := fw.count(wire.MsgComplete) + fw.count(wire.MsgDrain); got != want {
				t.Fatalf("%d terminal frames written, want %d (frames %v)", got, want, fw.types)
			}
			if n := fw.count(wire.MsgOpResult); n != 1 {
				t.Fatalf("%d OP-RESULTs for one op", n)
			}
		})
	}
}

// opFaults is a core.FaultInjector that delays every op.
type opFaults struct{ delay time.Duration }

func (f opFaults) OpDelay() time.Duration     { return f.delay }
func (f opFaults) WakeDelay() time.Duration   { return 0 }
func (f opFaults) CancelAfter() time.Duration { return 0 }

// cutArmed is a NetFaults that cuts the client's connection at the entry of
// the first op begun once it is armed.
type cutArmed struct{ armed atomic.Bool }

func (f *cutArmed) FrameDelay() time.Duration     { return 0 }
func (f *cutArmed) DropConn() bool                { return false }
func (f *cutArmed) StallHeartbeat() time.Duration { return 0 }
func (f *cutArmed) Overload() bool                { return false }
func (f *cutArmed) CutConn() bool                 { return f.armed.CompareAndSwap(true, false) }

// serveLogged serves the first connection made to the address it returns as
// h's Serve would, through the same read loop (runConn), but with every frame
// the session writes to its streams kept in log on its way to the connection;
// the session is sent on the channel once it is made.
func serveLogged(t *testing.T, h *Host, log *streamLog) (string, <-chan *hostSession) {
	t.Helper()
	sess := make(chan *hostSession, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		nc, err := l.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(nc)
		defer c.Close()
		if _, err := wire.ServerHandshakeV(c, h.script, h.cfg.MaxProtocolVersion, nil); err != nil {
			return
		}
		s := newHostSession(h, c, "", c.Version() < 2)
		log.fw, s.fw = c, log
		sess <- s
		h.runConn(s, c, nil)
	}()
	t.Cleanup(func() {
		l.Close()
		<-served
	})
	return l.Addr().String(), sess
}

// TestPostedOpTeardownByCutConn is the failure table's teardown row on a live
// connection: remote b has a RECV posted by the host's reader when the
// client's connection is cut (NetFaults.CutConn, at the entry of remote c's
// op on the same connection). The read loop's error tears the session down:
// b's op returns ErrConnLost on the client, a's Enroll is aborted blaming a
// role of the vanished enroller, the posted op is failed through the fabric —
// its OP-RESULT goes to the dead connection — and no terminal frame is
// written.
func TestPostedOpTeardownByCutConn(t *testing.T) {
	def := core.NewScript("cut").
		Role("a", recvB).
		Role("b", func(core.Ctx) error { return errors.New("local body must not run") }).
		Role("c", func(core.Ctx) error { return errors.New("local body must not run") }).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
	in := core.NewInstance(def)
	defer in.Close()
	h := NewHost(in, HostConfig{})
	defer h.Close()
	log := &streamLog{}
	faults := &cutArmed{}
	addr, sess := serveLogged(t, h, log)
	enr := NewEnroller(addr, EnrollerConfig{Faults: faults})
	defer enr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	aErr, bOp, bErr, cErr := make(chan error, 1), make(chan error, 1), make(chan error, 1), make(chan error, 1)
	cut := make(chan struct{})
	go func() {
		_, err := in.Enroll(ctx, core.Enrollment{PID: "A", Role: ids.Role("a")})
		aErr <- err
	}()
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{PID: "B", Role: ids.Role("b"), Body: func(rc core.Ctx) error {
			_, err := rc.Recv(ids.Role("a"))
			bOp <- err
			return err
		}})
		bErr <- err
	}()
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{PID: "C", Role: ids.Role("c"), Body: func(rc core.Ctx) error {
			<-cut
			_, err := rc.Recv(ids.Role("a"))
			return err
		}})
		cErr <- err
	}()
	var s *hostSession
	select {
	case s = <-sess:
	case <-time.After(5 * time.Second):
		t.Fatal("the enroller's connection was never served")
	}
	eventually(t, "b's RECV posted on the host", func() bool {
		s.smu.Lock()
		defer s.smu.Unlock()
		for _, st := range s.streams {
			if st.enroll.Role == "b" && st.phase == streamServing && st.b.op.typ == wire.MsgRecv {
				return true
			}
		}
		return false
	})
	faults.armed.Store(true)
	close(cut)

	select {
	case err := <-bOp:
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("b's op returned %v, want ErrConnLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b's op never returned")
	}
	for who, ch := range map[string]chan error{"b": bErr, "c": cErr} {
		if err := <-ch; !errors.Is(err, ErrConnLost) {
			t.Fatalf("%s's Enroll: %v, want ErrConnLost", who, err)
		}
	}
	var ae *core.AbortError
	if err := <-aErr; !errors.As(err, &ae) || ae.Reason != enrollerGone || (ae.Culprit.String() != "b" && ae.Culprit.String() != "c") {
		t.Fatalf("a's Enroll: %v, want an abort blaming b or c for %q", err, enrollerGone)
	}
	settleStats(t, h)
	log.mu.Lock()
	defer log.mu.Unlock()
	terminal := 0
	for _, typ := range log.types {
		if typ == wire.MsgComplete || typ == wire.MsgDrain || typ == wire.MsgAbort {
			terminal++
		}
	}
	if terminal != 0 || len(log.results) != 1 || !errors.Is(log.results[0].Err.Err(), core.ErrPerformanceAborted) {
		t.Fatalf("frames written: %v, OP-RESULTs %+v; want no terminal frame and b's op failed by the abort", log.types, log.results)
	}
}
