package remote

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/wire"
)

// These tests follow one remote enrollment through each phase of the host's
// offer path: placed by the connection's reader with no goroutine of its
// own, performed by a stream worker dispatched at assignment, held under
// delayed termination with no worker, and answered by whoever ends it.

// heldPair is a delayed-termination pair whose role a, played in process,
// waits until release is closed or its performance ends and then sends to b,
// the remote role. b's COMPLETE can therefore only come from whoever ends the
// performance: a's return, an abort, or Close.
func heldPair(release <-chan struct{}) core.Definition {
	return pairScript("held", func(rc core.Ctx) error {
		select {
		case <-release:
		case <-rc.(*core.RoleCtx).PerformanceDone():
		}
		return rc.Send(ids.Role("b"), "late")
	})
}

// enrollA plays role a in process and reports its outcome on the channel.
func enrollA(in *core.Instance) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
		done <- err
	}()
	return done
}

// settleStats waits for the host to count no enrollment and no stream.
func settleStats(t *testing.T, h *Host) {
	t.Helper()
	eventually(t, "the host to count nothing in flight", func() bool {
		st := h.Stats()
		return st.Enrolling == 0 && st.ActiveStreams == 0
	})
}

// TestCancelWhilePendingNeedsNoWorker: an offer waits in the core with no
// goroutine of its own, and a CANCEL withdraws it there — it leaves the
// instance's pending offers, is answered with the withdrawal, and no stream
// worker is ever dispatched for it.
func TestCancelWhilePendingNeedsNoWorker(t *testing.T) {
	in := core.NewInstance(pairScript("cancel", func(core.Ctx) error { return nil }))
	defer in.Close()
	h, addr := serveTestHost(t, in)
	b := dialRawClient(t, addr, "cancel", 2)
	b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"})
	eventually(t, "the offer to be pending", func() bool { return in.PendingOffers() == 1 })
	if st := h.Stats(); st.Enrolling != 1 || st.ActiveStreams != 1 {
		t.Fatalf("pending offer: enrolling %d, streams %d; want 1 and 1", st.Enrolling, st.ActiveStreams)
	}
	b.write(wire.MsgCancel, 1, 0, &wire.Cancel{})
	if cm := b.await(wire.MsgComplete).(*wire.Complete); !errors.Is(cm.Err.Err(), context.Canceled) {
		t.Fatalf("CANCEL answered with %+v, want the withdrawal", cm.Err)
	}
	if n := in.PendingOffers(); n != 0 {
		t.Fatalf("%d offers still pending after CANCEL", n)
	}
	settleStats(t, h)
	if n := h.Dispatched(); n != 0 {
		t.Fatalf("%d stream workers dispatched for an offer that was never assigned", n)
	}
}

// TestDrainAnswersPendingOffersWithoutAWorker: a drain turns the remote
// offers pending in the target away, and each is answered DRAIN by the
// goroutine that drained — no stream worker, no assignment.
func TestDrainAnswersPendingOffersWithoutAWorker(t *testing.T) {
	forEachProtoInternal(t, func(t *testing.T, proto int) {
		in := core.NewInstance(pairScript("drain", func(core.Ctx) error { return nil }))
		h, addr := serveTestHost(t, in)
		b := dialRawClient(t, addr, "drain", proto)
		b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"})
		eventually(t, "the offer to be pending", func() bool { return in.PendingOffers() == 1 })
		drained := make(chan error, 1)
		go func() { drained <- h.Drain(context.Background()) }()
		b.await(wire.MsgDrain)
		if err := <-drained; err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if n := h.Dispatched(); n != 0 {
			t.Fatalf("%d stream workers dispatched to answer a drain", n)
		}
	})
}

func forEachProtoInternal(t *testing.T, fn func(t *testing.T, proto int)) {
	t.Run("v2", func(t *testing.T) { fn(t, 2) })
	t.Run("v1", func(t *testing.T) { fn(t, 1) })
}

// heldRemote brings a remote b to the held phase on a fresh raw connection:
// a is playing, b's body has returned, and the host holds b with no worker.
func heldRemote(t *testing.T, in *core.Instance, h *Host, addr string) *rawClient {
	t.Helper()
	b := dialRawClient(t, addr, "held", 2)
	b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"})
	b.await(wire.MsgOfferAck)
	b.write(wire.MsgBodyDone, 1, 0, &wire.BodyDone{Results: []any{"b-result"}})
	eventually(t, "b to be held", func() bool { return heldStreams(h) == 1 })
	if st := h.Stats(); st.Enrolling != 1 || st.ActiveStreams != 1 {
		t.Fatalf("held: enrolling %d, streams %d; want 1 and 1 (ENROLL to COMPLETE)", st.Enrolling, st.ActiveStreams)
	}
	if n := h.Dispatched(); n != 1 {
		t.Fatalf("%d dispatches for one assigned enrollment", n)
	}
	return b
}

// heldStreams counts the streams of h's live connections that are held.
func heldStreams(h *Host) int {
	h.mu.Lock() // never held while taking a session's lock: connBroken nests them the other way
	sessions := make([]*hostSession, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	n := 0
	for _, s := range sessions {
		s.smu.Lock()
		for _, st := range s.streams {
			if st.phase == streamHeld {
				n++
			}
		}
		s.smu.Unlock()
	}
	return n
}

// TestDeadlineAbortReleasesHeldRemoteRole: a held remote role is released by
// the goroutine that ends its performance — here the deadline's abort — and
// its COMPLETE reports the body's success, as Enroll does for a role that
// finished before the abort.
func TestDeadlineAbortReleasesHeldRemoteRole(t *testing.T) {
	const deadline = 150 * time.Millisecond
	in := core.NewInstance(heldPair(nil), core.WithPerformanceDeadline(deadline))
	defer in.Close()
	h := resumableHost(t, in)
	aDone := enrollA(in)
	start := time.Now()
	b := heldRemote(t, in, h, h.Addr().String())
	cm := b.await(wire.MsgComplete).(*wire.Complete)
	if waited := time.Since(start); waited < deadline*2/3 {
		t.Fatalf("COMPLETE after %v: b was not held until the abort at %v", waited, deadline)
	}
	if cm.Err != nil || cm.Performance != 1 || len(cm.Values) != 1 || cm.Values[0] != "b-result" {
		t.Fatalf("COMPLETE %+v, want b's result and no error", cm)
	}
	var ae *core.AbortError
	if err := <-aDone; !errors.As(err, &ae) || ae.Reason != "deadline exceeded" {
		t.Fatalf("a: %v, want the deadline abort", err)
	}
	settleStats(t, h)
}

// TestInstanceCloseReleasesHeldRemoteRole: Close releases a held remote role
// with its result, like a local one.
func TestInstanceCloseReleasesHeldRemoteRole(t *testing.T) {
	in := core.NewInstance(heldPair(nil))
	h := resumableHost(t, in)
	aDone := enrollA(in)
	b := heldRemote(t, in, h, h.Addr().String())
	in.Close()
	if cm := b.await(wire.MsgComplete).(*wire.Complete); cm.Err != nil || cm.Values[0] != "b-result" {
		t.Fatalf("COMPLETE %+v, want b's result and no error", cm)
	}
	if err := <-aDone; err == nil {
		t.Fatal("a returned no error from a send into a closed instance")
	}
	settleStats(t, h)
}

// TestHostCloseCutsHeldRemoteRoleLoose: a host that closes under a held
// remote role cuts it loose; the role's co-performer is not affected and
// completes when its body does.
func TestHostCloseCutsHeldRemoteRoleLoose(t *testing.T) {
	release := make(chan struct{})
	in := core.NewInstance(heldPair(release))
	defer in.Close()
	h := resumableHost(t, in)
	aDone := enrollA(in)
	heldRemote(t, in, h, h.Addr().String())
	h.Close()
	settleStats(t, h)
	close(release)
	if err := <-aDone; !errors.Is(err, core.ErrRoleFinished) {
		t.Fatalf("a: %v, want its send to find b finished", err)
	}
	eventually(t, "the instance to be idle", func() bool { return in.Load() == 0 })
}

// resumableHost serves in with sessions registered (a resume window), so the
// tests can find the host's streams; no test here resumes.
func resumableHost(t *testing.T, in *core.Instance) *Host {
	t.Helper()
	h := NewHost(in, HostConfig{ResumeWindow: time.Minute})
	if err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go h.Serve()
	t.Cleanup(func() { h.Close() })
	return h
}

// frameLog is a stream's frame writer that records the type of every frame
// written to it.
type frameLog struct {
	mu     sync.Mutex
	frames []wire.MsgType
}

func (f *frameLog) WriteFrame(t wire.MsgType, _, _ uint64, _ any) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frames = append(f.frames, t)
	return nil
}

func (f *frameLog) written() []wire.MsgType {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]wire.MsgType(nil), f.frames...)
}

// TestCutWhileHeldWritesNothing: the connection of a held remote role is
// lost with no resume window — the session is torn down. The role is cut
// loose: its co-performer completes, nothing more is written to the dead
// stream (no COMPLETE, then or when the performance ends), its hostStream is
// not recycled, the host stops counting it and Drain returns.
func TestCutWhileHeldWritesNothing(t *testing.T) {
	release := make(chan struct{})
	in := core.NewInstance(heldPair(release))
	h := NewHost(in, HostConfig{})
	defer h.Close()
	fw := &frameLog{}
	s := &hostSession{h: h, fw: fw, streams: make(map[uint64]*hostStream), tasks: make(chan *hostStream)}
	st := &hostStream{s: s, enroll: wire.Enroll{PID: "B", Role: "b"}}
	st.b.fw, st.b.streamID, st.b.opCh = fw, 1, make(chan hostOp, streamOpBacklog)
	st.body = st.b.run
	st.ctx, st.cancel = context.WithCancel(context.Background())
	s.streams[1] = st
	h.activeStreams.Add(1)
	aDone := enrollA(in)
	s.offer(st) // what the reader does with an ENROLL
	eventually(t, "b's OFFER-ACK", func() bool { return len(fw.written()) == 1 })
	s.smu.Lock()
	st.b.opCh <- hostOp{typ: wire.MsgBodyDone}
	s.smu.Unlock()
	eventually(t, "b to be held", func() bool {
		s.smu.Lock()
		defer s.smu.Unlock()
		return st.phase == streamHeld
	})

	s.teardown() // the connection died and the session cannot park
	settleStats(t, h)
	if st.ctx.Err() == nil || len(s.free) != 0 {
		t.Fatalf("cut stream: context %v, %d on the free list; want it ended and not recycled", st.ctx.Err(), len(s.free))
	}
	close(release)
	if err := <-aDone; !errors.Is(err, core.ErrRoleFinished) {
		t.Fatalf("a: %v, want its send to find b finished", err)
	}
	eventually(t, "the instance to be idle", func() bool { return in.Load() == 0 })
	if got := fw.written(); len(got) != 1 || got[0] != wire.MsgOfferAck {
		t.Fatalf("frames written to b's stream: %v, want only its OFFER-ACK", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
