package remote

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/wire"
)

// These tests follow one remote enrollment through each phase of the host's
// offer path: placed by the connection's reader with no goroutine of its
// own, acknowledged by whoever formed the cast, idle between its ops with no
// goroutine, ended at BODY-DONE by the reader, held under delayed termination
// with no goroutine, and answered by whoever ends it.

// heldPair is a delayed-termination pair: a plays in process (enrollA), b
// remotely.
var heldPair = pairScript("held", func(core.Ctx) error { return errors.New("a plays through enrollA") })

// abortWatch is enrollA's hand-off: a wake channel for the assignment and the
// release, and aborted, closed when the performance is aborted under a.
type abortWatch struct{ wake, aborted chan struct{} }

func (w abortWatch) Settled(core.Offered, error) {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}
func (w abortWatch) Released()                              { w.Settled(core.Offered{}, nil) }
func (w abortWatch) Aborted(core.Offered, *core.AbortError) { close(w.aborted) }

// enrollA plays role a of heldPair in process, through the hand-off, and
// reports its outcome on the channel: a waits until release is closed or its
// performance is aborted, and then sends to b, the remote role. b's COMPLETE
// can therefore only come from whoever ends the performance: a's return, an
// abort, or Close.
func enrollA(in *core.Instance, release <-chan struct{}) <-chan error {
	done := make(chan error, 1)
	w := abortWatch{make(chan struct{}, 1), make(chan struct{})}
	go func() {
		o, err := in.Offer(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")}, w)
		if err != nil {
			done <- err
			return
		}
		<-w.wake
		_, held, err := o.Perform(func(rc core.Ctx) error {
			select {
			case <-release:
			case <-w.aborted:
			}
			return rc.Send(ids.Role("b"), "late")
		})
		if held {
			<-w.wake
		}
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
// instance's pending offers, is answered with the withdrawal, and no
// goroutine ever serves its stream.
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
	if n := StreamServers(); n != 0 {
		t.Fatalf("%d goroutines serve a stream for an offer that was never assigned", n)
	}
}

// TestDrainAnswersPendingOffersWithoutAWorker: a drain turns the remote
// offers pending in the target away, and each is answered DRAIN by the
// goroutine that drained — no goroutine of the stream's, no assignment.
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
		if n := StreamServers(); n != 0 {
			t.Fatalf("%d goroutines serve a stream after answering a drain", n)
		}
	})
}

func forEachProtoInternal(t *testing.T, fn func(t *testing.T, proto int)) {
	t.Run("v2", func(t *testing.T) { fn(t, 2) })
	t.Run("v1", func(t *testing.T) { fn(t, 1) })
}

// heldRemote brings a remote b to the held phase on a fresh raw connection:
// a is playing, b's body has returned, and the host holds b. No goroutine
// ever served the stream: b's one frame after its OFFER-ACK is the BODY-DONE
// of an idle stream, which the reader ends.
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
	if n := StreamServers(); n != 0 {
		t.Fatalf("%d goroutines serve a stream for an enrollment that sent no op", n)
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
	in := core.NewInstance(heldPair, core.WithPerformanceDeadline(deadline))
	defer in.Close()
	h := resumableHost(t, in)
	aDone := enrollA(in, nil)
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
	release := make(chan struct{})
	in := core.NewInstance(heldPair)
	h := resumableHost(t, in)
	aDone := enrollA(in, release)
	b := heldRemote(t, in, h, h.Addr().String())
	in.Close()
	close(release) // a sends into the closed instance
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
	in := core.NewInstance(heldPair)
	defer in.Close()
	h := resumableHost(t, in)
	aDone := enrollA(in, release)
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
	in := core.NewInstance(heldPair)
	h := NewHost(in, HostConfig{})
	defer h.Close()
	fw := &frameLog{}
	s := &hostSession{h: h, fw: fw, streams: make(map[uint64]*hostStream)}
	st := openTestStream(s, 1, wire.Enroll{PID: "B", Role: "b"})
	aDone := enrollA(in, release)
	s.offer(st) // what the reader does with an ENROLL
	eventually(t, "b's OFFER-ACK", func() bool { return len(fw.written()) == 1 })
	s.deliver(1, hostOp{typ: wire.MsgBodyDone}) // and with an idle stream's BODY-DONE
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

// TestHandoffReleasedOvertakesTheEnder forces the cell the soaks reach only
// by chance: the performance ends, and its Released reaches the stream, while
// the role's ender is still on its way out of Finish — the stream is serving,
// not yet held. Released leaves it to the ender, whose held step finishes it:
// one COMPLETE, written by the ender, and the hostStream recycled.
func TestHandoffReleasedOvertakesTheEnder(t *testing.T) {
	release := make(chan struct{})
	in := core.NewInstance(heldPair)
	defer in.Close()
	h := NewHost(in, HostConfig{})
	defer h.Close()
	fw := &frameLog{}
	s := &hostSession{h: h, fw: fw, streams: make(map[uint64]*hostStream)}
	st := openTestStream(s, 1, wire.Enroll{PID: "B", Role: "b"})
	aDone := enrollA(in, release)
	eventually(t, "a's offer", func() bool { return in.PendingOffers() == 1 })
	s.offer(st)

	// The reader's BODY-DONE of the idle stream, up to the ender's Finish.
	s.smu.Lock()
	a := s.stepLocked(st, evBodyDone, false)
	s.smu.Unlock()
	if a != actEnd {
		t.Fatalf("BODY-DONE of an idle stream: action %d, want the reader to end the role", a)
	}
	res, held, err := st.o.Finish(nil)
	if !held {
		t.Fatal("b is not held under delayed termination")
	}
	st.outcome(res, err)
	close(release) // a ends the performance, and Released overtakes the ender
	eventually(t, "Released to find the stream serving", func() bool {
		s.smu.Lock()
		defer s.smu.Unlock()
		return st.phase == streamReleased
	})
	if got := fw.written(); len(got) != 1 {
		t.Fatalf("frames before the ender's held step: %v, want only the OFFER-ACK", got)
	}

	if a := st.raise(evHeld); a != actFinish { // the ender's held step
		t.Fatalf("the ender's held step of a released stream: %d, want it to finish the stream", a)
	}
	s.finish(st)
	want := []wire.MsgType{wire.MsgOfferAck, wire.MsgComplete}
	if got := fw.written(); !slices.Equal(got, want) {
		t.Fatalf("frames written to b's stream: %v, want %v", got, want)
	}
	if len(s.free) != 1 || s.free[0] != st {
		t.Fatalf("free list %v, want the finished hostStream recycled", s.free)
	}
	if err := <-aDone; !errors.Is(err, core.ErrRoleFinished) {
		t.Fatalf("a: %v, want its send to find b finished", err)
	}
	settleStats(t, h)
}

// expect reads the next frame and fails unless it is of type want; it
// returns the frame's stream and message.
func (r *rawClient) expect(want wire.MsgType) (uint64, any) {
	r.t.Helper()
	typ, stream, _, m, err := r.c.ReadFrame()
	if err != nil || typ != want {
		r.t.Fatalf("read %s %+v (%v), want %s", typ, m, err, want)
	}
	return stream, m
}

// lateSettle withholds every assignment's hand-off for its duration (the
// chaos WakeDelay fault, and nothing else).
type lateSettle time.Duration

func (lateSettle) OpDelay() time.Duration     { return 0 }
func (lateSettle) CancelAfter() time.Duration { return 0 }
func (d lateSettle) WakeDelay() time.Duration { return time.Duration(d) }

// TestAbortOvertakesTheAssignmentHandoff: the performance is aborted while
// the assignment's hand-off is withheld, so the stream is told of the abort
// before it is told of the assignment. The client still reads its OFFER-ACK
// first and the ABORT right behind it, then COMPLETE for its BODY-DONE.
func TestAbortOvertakesTheAssignmentHandoff(t *testing.T) {
	forEachProtoInternal(t, func(t *testing.T, proto int) {
		in := core.NewInstance(pairScript("overtaken", func(rc core.Ctx) error {
			_, err := rc.Recv(ids.Role("b"))
			return err
		}), core.WithFaultInjection(lateSettle(150*time.Millisecond)), core.WithPerformanceDeadline(20*time.Millisecond))
		defer in.Close()
		_, addr := serveTestHost(t, in)
		aErr := make(chan error, 1)
		go func() {
			_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
			aErr <- err
		}()
		b := dialRawClient(t, addr, "overtaken", proto)
		b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"})
		b.expect(wire.MsgOfferAck)
		if _, m := b.expect(wire.MsgAbort); m.(*wire.Abort).Reason != "deadline exceeded" {
			t.Fatalf("ABORT %+v, want the deadline's", m)
		}
		b.write(wire.MsgBodyDone, 1, 0, &wire.BodyDone{})
		b.expect(wire.MsgComplete)
		var ae *core.AbortError
		if err := <-aErr; !errors.As(err, &ae) {
			t.Fatalf("a: %v, want the abort", err)
		}
		if n := StreamServers(); n != 0 {
			t.Fatalf("%d goroutines serve a stream for a role that sent no op", n)
		}
	})
}

// TestCancelOfAnIdleStreamAbortsItsPerformance: a CANCEL for a role between
// its ops — idle, with no goroutine — is ended by the reader that reads it: the
// performance is aborted blaming the role with the reason a CANCEL has always
// carried, and the stream is answered with one COMPLETE and nothing else.
func TestCancelOfAnIdleStreamAbortsItsPerformance(t *testing.T) {
	in := core.NewInstance(pairScript("idlecancel", func(rc core.Ctx) error {
		_, err := rc.Recv(ids.Role("b"))
		return err
	}))
	defer in.Close()
	_, addr := serveTestHost(t, in)
	aErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
		aErr <- err
	}()
	b := dialRawClient(t, addr, "idlecancel", 2)
	b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"})
	b.expect(wire.MsgOfferAck)
	b.write(wire.MsgCancel, 1, 0, &wire.Cancel{})
	var ae *core.AbortError
	if err := <-aErr; !errors.As(err, &ae) || ae.Culprit != ids.Role("b") || ae.Reason != "enrollment canceled by enroller" {
		t.Fatalf("a: %v, want an abort blaming b for the CANCEL", err)
	}
	// A refused ENROLL on a second stream is answered behind everything the
	// host wrote for the first.
	b.write(wire.MsgEnroll, 3, 0, &wire.Enroll{PID: "B", Role: "nosuch"})
	completes := 0
	for {
		stream, m := b.expect(wire.MsgComplete)
		if stream == 3 {
			break
		}
		if completes++; m.(*wire.Complete).Err == nil {
			t.Fatalf("the cancelled stream's COMPLETE %+v carries no error", m)
		}
	}
	if completes != 1 {
		t.Fatalf("%d COMPLETEs for the cancelled stream, want 1", completes)
	}
	if n := StreamServers(); n != 0 {
		t.Fatalf("%d goroutines serve a stream ended idle", n)
	}
}

// duo is a delayed-termination pair whose two roles are both played remotely.
var duo = core.NewScript("duo").
	Role("x", func(core.Ctx) error { return errors.New("local body must not run") }).
	Role("y", func(core.Ctx) error { return errors.New("local body must not run") }).
	Initiation(core.DelayedInitiation).
	Termination(core.DelayedTermination).
	MustBuild()

// TestHandoffOfReaderBodyDoneReleasesHeldRoles: two remote roles that send no
// op are ended at BODY-DONE by the connection's reader — the first held, with
// nothing written, the second ending the performance — and the reader, having
// ended it, writes both COMPLETEs. No goroutine ever serves a stream.
func TestHandoffOfReaderBodyDoneReleasesHeldRoles(t *testing.T) {
	in := core.NewInstance(duo)
	defer in.Close()
	h := resumableHost(t, in)
	c := dialRawClient(t, h.Addr().String(), "duo", 2)
	c.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "X", Role: "x"})
	c.write(wire.MsgEnroll, 3, 0, &wire.Enroll{PID: "Y", Role: "y"})
	c.expect(wire.MsgOfferAck)
	c.expect(wire.MsgOfferAck)
	c.write(wire.MsgBodyDone, 1, 0, &wire.BodyDone{Results: []any{"x-result"}})
	eventually(t, "x to be held", func() bool { return heldStreams(h) == 1 })
	c.write(wire.MsgBodyDone, 3, 0, &wire.BodyDone{Results: []any{"y-result"}})
	got := map[uint64]any{}
	for range 2 {
		stream, m := c.expect(wire.MsgComplete)
		if cm := m.(*wire.Complete); cm.Err == nil && len(cm.Values) == 1 {
			got[stream] = cm.Values[0]
		}
	}
	if got[1] != "x-result" || got[3] != "y-result" {
		t.Fatalf("COMPLETEs carried %v, want each role's result", got)
	}
	settleStats(t, h)
	if n := StreamServers(); n != 0 {
		t.Fatalf("%d goroutines serve a stream for roles that sent no op", n)
	}
}

// TestSeveredWhileServedAbortsBeforeItEnds pins the order an op's completer
// keeps when it finds its stream severed after the op: the performance is
// aborted with the sever's reason first, and only then does the role end.
// Here the mark is made, as markSevered makes it, while the stream has an op
// in hand, and the severing goroutine never gets to its own abort; a
// completer that ended the role first would have a's Recv told "role already
// finished: b" (the resume-off churn soak saw that class).
func TestSeveredWhileServedAbortsBeforeItEnds(t *testing.T) {
	in := core.NewInstance(pairScript("severed", func(rc core.Ctx) error {
		_, err := rc.Recv(ids.Role("b"))
		return err
	}))
	defer in.Close()
	h := NewHost(in, HostConfig{})
	defer h.Close()
	fw := &frameLog{}
	s := &hostSession{h: h, fw: fw, streams: make(map[uint64]*hostStream)}
	st := openTestStream(s, 1, wire.Enroll{PID: "B", Role: "b"})
	aErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
		aErr <- err
	}()
	eventually(t, "a's offer", func() bool { return in.PendingOffers() == 1 })
	s.offer(st)
	s.smu.Lock() // the reader takes the idle stream to serving with an op in hand
	a := s.stepLocked(st, evOp, false)
	st.b.op = hostOp{typ: wire.MsgQuery, tag: wire.QueryFilled, peer: "a"}
	st.severed = "enrollment canceled by enroller"
	s.smu.Unlock()
	st.run(a, "") // and posts it: a QUERY is answered at once
	var ae *core.AbortError
	if err := <-aErr; !errors.As(err, &ae) || ae.Culprit != ids.Role("b") || ae.Reason != "enrollment canceled by enroller" {
		t.Fatalf("a: %v, want an abort blaming b with the sever's reason", err)
	}
	settleStats(t, h)
}

// TestAbortOfAnotherOfferIsNotWritten: a hostStream is reused for a later
// ENROLL once its enrollment ends, and an Aborted, made after the lock, can
// reach it after that. The earlier enrollment's abort must not be written to
// the later one, whose client would take it for its own performance's and end
// its role with it (the resume-off churn soak saw the co-performer told "role
// already finished"). The stream writes ABORT only for the offer it holds,
// whether the abort finds it idle or overtakes its assignment's hand-off:
// here x's stream is told of y's abort once idle, and y's stream, offering as
// a recycled hostStream is, of x's before its assignment.
func TestAbortOfAnotherOfferIsNotWritten(t *testing.T) {
	in := core.NewInstance(duo)
	defer in.Close()
	h := NewHost(in, HostConfig{})
	defer h.Close()
	fw := &frameLog{}
	s := &hostSession{h: h, fw: fw, streams: make(map[uint64]*hostStream)}
	x := openTestStream(s, 1, wire.Enroll{PID: "X", Role: "x"})
	s.offer(x)
	y := openTestStream(s, 3, wire.Enroll{PID: "Y", Role: "y"})
	s.smu.Lock()
	ox := x.o
	s.smu.Unlock()

	ae := &core.AbortError{Performance: 7, Culprit: ids.Role("x"), Reason: "another offer's"}
	y.Aborted(ox, ae) // overtaking an assignment's hand-off
	s.offer(y)        // the cast forms: both OFFER-ACKs
	s.smu.Lock()
	oy := y.o
	s.smu.Unlock()
	x.Aborted(oy, ae) // found idle
	y.Aborted(oy, ae)
	want := []wire.MsgType{wire.MsgOfferAck, wire.MsgOfferAck, wire.MsgAbort}
	if got := fw.written(); !slices.Equal(got, want) {
		t.Fatalf("frames written to the streams: %v, want %v", got, want)
	}

	for _, stream := range []uint64{1, 3} { // the reader's BODY-DONEs
		s.deliver(stream, hostOp{typ: wire.MsgBodyDone})
	}
	settleStats(t, h)
}

// openTestStream opens stream on s for the ENROLL m, as the reader's ENROLL
// does before it offers.
func openTestStream(s *hostSession, stream uint64, m wire.Enroll) *hostStream {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.openLocked(stream, &m)
}
