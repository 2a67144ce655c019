package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/wire"
)

func serveTestHost(t *testing.T, target Target) (*Host, string) {
	t.Helper()
	h := NewHost(target, HostConfig{})
	if err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go h.Serve()
	t.Cleanup(func() { h.Close() })
	return h, h.Addr().String()
}

// countingTarget counts the enrollments the host has handed to its target,
// so a test can wait until the host has acted on every ENROLL it was sent.
type countingTarget struct {
	Target
	entered atomic.Int64
}

func (c *countingTarget) Enroll(ctx context.Context, e core.Enrollment) (core.Result, error) {
	c.entered.Add(1)
	return c.Target.Enroll(ctx, e)
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWithdrawOfAlreadyCancelledEnrollment is the ghost-offer regression
// test. An enrollment whose context is already done when its conversation
// starts (a timeout that lapsed inside the dial, say) still puts its ENROLL
// on the wire, so it must still be withdrawn. On a connection other streams
// keep alive nothing else would ever reclaim it: the host would hold a
// pending offer with no client behind it, and a performance that matched it
// would wait for ops forever.
func TestWithdrawOfAlreadyCancelledEnrollment(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	target := &countingTarget{Target: in}
	h, addr := serveTestHost(t, target)
	e := NewEnroller(addr, EnrollerConfig{})
	defer e.Close()

	// One live stream pins the shared connection: a pending recipient offer.
	holdCtx, release := context.WithCancel(context.Background())
	defer release()
	held := make(chan error, 1)
	recipient := func(pid string) core.Enrollment {
		return core.Enrollment{
			PID:  ids.PID(pid),
			Role: ids.Member(patterns.RoleRecipient, 1),
			Body: func(rc core.Ctx) error { _, err := rc.Recv(ids.Role(patterns.RoleSender)); return err },
		}
	}
	go func() {
		_, err := e.Enroll(holdCtx, recipient("holder"))
		held <- err
	}()
	eventually(t, "the holder's offer to go pending", func() bool { return in.PendingOffers() == 1 })
	if got := h.Stats().Enrolling; got != 1 {
		t.Fatalf("baseline Enrolling = %d, want 1", got)
	}

	const ghosts = 200
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	hs := e.hostList()[0]
	for i := 0; i < ghosts; i++ {
		mc := hs.reserveMux()
		if mc == nil {
			t.Fatalf("enrollment %d: the holder's connection has no free stream", i)
		}
		if _, err := e.enrollMux(gone, mc, recipient(fmt.Sprintf("ghost-%d", i))); !errors.Is(err, context.Canceled) {
			t.Fatalf("enrollment %d: err = %v, want context.Canceled", i, err)
		}
	}
	eventually(t, "the host to admit every ENROLL it was sent", func() bool {
		return target.entered.Load() == 1+ghosts
	})
	eventually(t, "every cancelled enrollment to be withdrawn host-side", func() bool {
		return h.Stats().Enrolling == 1 && in.PendingOffers() == 1
	})
	if got := h.Stats().Conns; got != 1 {
		t.Fatalf("conns = %d, want the holder's 1", got)
	}

	release()
	if err := <-held; !errors.Is(err, context.Canceled) {
		t.Fatalf("holder err = %v, want context.Canceled", err)
	}
}

// rawClient drives the wire by hand on either protocol: v1 frames carry no
// envelope, so its stream and sequence IDs are forced to zero there.
type rawClient struct {
	t     *testing.T
	c     *wire.Conn
	proto int
}

func dialRawClient(t *testing.T, addr, script string, proto int) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	c := wire.NewConn(nc)
	if _, err := wire.ClientHandshakeV(c, script, proto); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if c.Version() != proto {
		t.Fatalf("negotiated v%d, want v%d", c.Version(), proto)
	}
	c.SetReadTimeout(10 * time.Second)
	return &rawClient{t: t, c: c, proto: proto}
}

func (r *rawClient) write(typ wire.MsgType, stream, seq uint64, m any) {
	r.t.Helper()
	if r.proto < 2 {
		stream, seq = 0, 0
	}
	if err := r.c.WriteFrame(typ, stream, seq, m); err != nil {
		r.t.Fatalf("write %s: %v", typ, err)
	}
}

// await reads frames until one of type want arrives, skipping ABORT notices.
func (r *rawClient) await(want wire.MsgType) any {
	r.t.Helper()
	for {
		typ, _, _, m, err := r.c.ReadFrame()
		if err != nil {
			r.t.Fatalf("awaiting %s: %v", want, err)
		}
		switch typ {
		case want:
			return m
		case wire.MsgAbort:
		default:
			r.t.Fatalf("awaiting %s: got %s %+v", want, typ, m)
		}
	}
}

func pairScript(name string, aBody core.RoleBody) core.Definition {
	return core.NewScript(name).
		Role("a", aBody).
		Role("b", func(core.Ctx) error { return errors.New("local body must not run") }).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
}

// TestOperationFlood pins the network-facing op backlog: a client that
// writes more ops than streamOpBacklog without the host being able to serve
// them is told "operation flood" and dropped, and its co-performer unwinds
// with an abort naming it — the same limit, reply and attribution on both
// protocols.
func TestOperationFlood(t *testing.T) {
	for _, proto := range []int{1, 2} {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) {
			// a waits for a message b never sends, so b's first Recv blocks in
			// the fabric and everything behind it piles up in the backlog.
			in := core.NewInstance(pairScript("flood", func(rc core.Ctx) error {
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

			b := dialRawClient(t, addr, "flood", proto)
			b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"})
			b.await(wire.MsgOfferAck)
			recv := &wire.Recv{From: "a"}
			b.write(wire.MsgRecv, 1, 1, recv)
			time.Sleep(50 * time.Millisecond) // let the bridge take it and block
			for i := 0; i < streamOpBacklog+1; i++ {
				b.write(wire.MsgRecv, 1, uint64(i+2), recv)
			}

			// The flood aborts the performance, so what the unwinding enrollment
			// still writes (the blocked RECV's result, the queued ones', its
			// COMPLETE) lands around the ERROR in any order, until the host
			// drops the connection.
			var pe *wire.ProtoError
			for {
				typ, _, _, m, err := b.c.ReadFrame()
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatal("connection still open after the flood")
				}
				if err != nil {
					break
				}
				switch typ {
				case wire.MsgError:
					pe = m.(*wire.ProtoError)
				case wire.MsgOpResult, wire.MsgAbort, wire.MsgComplete:
				default:
					t.Fatalf("after the flood: got %s %+v", typ, m)
				}
			}
			if pe == nil || !strings.Contains(pe.Msg, "operation flood") {
				t.Fatalf("ERROR = %+v, want an operation flood", pe)
			}

			var ae *core.AbortError
			if err := <-aErr; !errors.As(err, &ae) {
				t.Fatalf("co-performer err = %v, want *AbortError", err)
			}
			if ae.Culprit != ids.Role("b") || !strings.Contains(ae.Reason, "operation flood") {
				t.Fatalf("abort = %+v, want culprit b for an operation flood", ae)
			}
		})
	}
}

// slotProbe is a stream's frame writer that records, at the moment the
// terminal frame is written, whether the session still holds the stream.
type slotProbe struct {
	s        *hostSession
	terminal wire.MsgType
	held     bool
}

func (p *slotProbe) WriteFrame(t wire.MsgType, stream, _ uint64, _ any) error {
	if t == wire.MsgComplete || t == wire.MsgDrain {
		p.terminal = t
		p.s.smu.Lock()
		_, p.held = p.s.streams[stream]
		p.s.smu.Unlock()
	}
	return nil
}

// TestStreamSlotFreedBeforeTerminalFrame pins the ordering a lock-step
// conversation depends on: the client may send its next ENROLL the moment it
// reads COMPLETE, so the host must have freed the connection's one stream
// before writing that frame — or the ENROLL is taken for a reuse of a live
// stream and the connection dropped.
func TestStreamSlotFreedBeforeTerminalFrame(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h := NewHost(in, HostConfig{})
	defer h.Close()

	s := &hostSession{h: h, lockstep: true, streams: make(map[uint64]*hostStream), tasks: make(chan streamTask)}
	probe := &slotProbe{s: s}
	ctx, cancel := context.WithCancel(context.Background())
	st := &hostStream{b: bridge{fw: probe, quit: make(chan struct{})}, ctx: ctx, cancel: cancel}
	s.streams[0] = st
	// An enrollment the target rejects runs the whole path: admission,
	// target.Enroll, terminal COMPLETE.
	s.work(streamTask{stream: 0, st: st, m: &wire.Enroll{PID: "P", Role: "nosuch"}})

	if probe.terminal != wire.MsgComplete {
		t.Fatalf("terminal frame = %v, want COMPLETE", probe.terminal)
	}
	if probe.held {
		t.Fatal("stream slot still held while COMPLETE was written")
	}
}

// TestLockstepOpResultReachesPendingOp pins the client half of the v1
// envelope rule: the v1 codec carries no sequence ID (a non-zero one is an
// encode error) and reports every inbound OP-RESULT as seq 0, which must
// still find the conversation's one pending op.
func TestLockstepOpResultReachesPendingOp(t *testing.T) {
	mc := pipeMux(t, 1) // speaks v1 until a handshake says otherwise
	st := openNext(t, mc)
	for round, want := range []string{"first", "second"} {
		got := startOp(t, st)
		st.deliver(wire.MsgOpResult, 0, &wire.OpResult{Val: want})
		if out := <-got; out.err != nil || out.res.Val != want {
			t.Fatalf("op %d = %+v, %v; want %q", round, out.res, out.err, want)
		}
	}
}

// pipeMux builds the client side of a conversation by hand, on a pipe whose
// far end discards what it is sent: version 1 is the lock-step conversation
// with its one stream, version 2 a multiplexed one. The test plays the
// connection's reader itself, through dispatch.
func pipeMux(t *testing.T, version int) *muxConn {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	go io.Copy(io.Discard, srv)
	c := wire.NewConn(cli)
	c.SetVersion(version)
	mc := &muxConn{
		c:          c,
		hs:         &hostState{},
		stop:       make(chan struct{}),
		maxStreams: DefaultMaxStreamsPerConn,
		lockstep:   version < 2,
		streams:    make(map[uint64]*muxStream),
	}
	if mc.lockstep {
		mc.maxStreams = 1
	}
	return mc
}

func openNext(t *testing.T, mc *muxConn) *muxStream {
	t.Helper()
	if !mc.tryReserve() {
		t.Fatal("conversation refused a stream")
	}
	st, err := mc.openStream()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// startOp issues a RECV on st and returns once it is registered as pending.
func startOp(t *testing.T, st *muxStream) <-chan opOutcome {
	t.Helper()
	got := make(chan opOutcome, 1)
	go func() {
		res, err := st.op(context.Background(), wire.MsgRecv, &wire.Recv{From: "a"})
		got <- opOutcome{res, err}
	}()
	eventually(t, "the op to be pending", func() bool { return pendingOps(st) == 1 })
	return got
}

func pendingOps(st *muxStream) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.pending)
}

// TestRecycledStreamStartsClean is the client half of the recycling
// invariant: an enrollment inherits the muxStream of a finished one and
// nothing else of it. The first enrollment here gave up with its COMPLETE
// still unread; its successor must find the events channel empty and its
// sequence space restarted, and the frames that still arrive for the
// finished stream ID — a result, an abort notice, a terminal frame — must be
// dropped, not delivered to the op the successor has in flight.
func TestRecycledStreamStartsClean(t *testing.T) {
	mc := pipeMux(t, 2)
	first := openNext(t, mc)
	finished := first.id
	mc.dispatch(wire.MsgComplete, finished, 0, &wire.Complete{Performance: 1})
	if len(first.events) != 1 {
		t.Fatal("COMPLETE did not reach the live stream")
	}
	mc.closeStream(first, true)

	next := openNext(t, mc)
	if next != first || next.id == finished {
		t.Fatalf("stream %d (%p) after stream %d (%p): want the muxStream reused under a fresh ID", next.id, next, finished, first)
	}
	if len(next.events) != 0 {
		t.Fatal("a reused stream starts with its predecessor's event")
	}
	got := startOp(t, next)
	mc.dispatch(wire.MsgOpResult, finished, 1, &wire.OpResult{Val: "stale"})
	mc.dispatch(wire.MsgAbort, finished, 0, &wire.Abort{Reason: "stale"})
	mc.dispatch(wire.MsgComplete, finished, 0, &wire.Complete{})
	if len(next.events) != 0 || next.abortError() != nil || pendingOps(next) != 1 {
		t.Fatalf("late frames for stream %d reached stream %d: %d events, abort %v, %d ops pending",
			finished, next.id, len(next.events), next.abortError(), pendingOps(next))
	}
	mc.dispatch(wire.MsgOpResult, next.id, 1, &wire.OpResult{Val: "mine"})
	if out := <-got; out.err != nil || out.res.Val != "mine" {
		t.Fatalf("op = %+v, %v; want its own result", out.res, out.err)
	}
}

// TestRecycleRacesReader runs the reader against enrollments that open and
// close streams as fast as they can, every frame tagged with the stream ID
// it is addressed to. The reader's lookup and hand-off share a critical
// section with closeStream, so however the two interleave a stream only
// ever sees frames carrying its own ID.
func TestRecycleRacesReader(t *testing.T) {
	mc := pipeMux(t, 2)
	var open atomic.Uint64
	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for !stop.Load() {
			id := open.Load()
			mc.dispatch(wire.MsgOfferAck, id, 0, &wire.OfferAck{Performance: int(id)})
		}
	}()
	for round := 0; round < 5000; round++ {
		st := openNext(t, mc)
		open.Store(st.id)
		select {
		case ev := <-st.events:
			if ev.ack.Performance != int(st.id) {
				t.Fatalf("stream %d received a frame addressed to stream %d", st.id, ev.ack.Performance)
			}
		default:
		}
		mc.closeStream(st, true)
	}
	stop.Store(true)
	<-readerDone
}

// TestHostStreamRecycling is the host half of the invariant, at the point
// where a worker disposes of a finished enrollment's hostStream. One that
// ran its course is kept, emptied of the ops the client queued behind
// BODY-DONE. One that a CANCEL (or a flood, or teardown) was aimed at is
// not: sever marked it in the critical section that found it, so the
// disconnect and cancel that follow it — however late — hit no successor.
func TestHostStreamRecycling(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h := NewHost(in, HostConfig{})
	defer h.Close()
	s := &hostSession{h: h, streams: make(map[uint64]*hostStream), tasks: make(chan streamTask)}
	// Each enrollment is one the target rejects, which runs the whole path.
	enroll := func(stream uint64) (*hostStream, streamTask) {
		st := &hostStream{}
		st.b.fw, st.b.opCh, st.b.quit = &slotProbe{s: s}, make(chan hostOp, streamOpBacklog), make(chan struct{})
		st.ctx, st.cancel = context.WithCancel(context.Background())
		s.streams[stream] = st
		return st, streamTask{stream: stream, st: st, m: &wire.Enroll{PID: "P", Role: "nosuch"}}
	}

	st, task := enroll(1)
	for i := 0; i < 3; i++ {
		st.b.opCh <- hostOp{typ: wire.MsgRecv, seq: uint64(i), m: &wire.Recv{From: "a"}}
	}
	s.work(task)
	if len(s.free) != 1 || s.free[0] != st || len(st.b.opCh) != 0 || st.ctx.Err() != nil {
		t.Fatalf("finished enrollment: free = %v, %d ops left, ctx %v; want it kept, empty and live", s.free, len(st.b.opCh), st.ctx.Err())
	}
	if s.sever(1) != nil {
		t.Fatal("a CANCEL for the finished stream still found it")
	}

	st, task = enroll(2)
	found := s.sever(2)
	if found != st {
		t.Fatal("a CANCEL for the live stream did not find it")
	}
	s.work(task)
	if len(s.free) != 1 || s.free[0] == st || st.ctx.Err() == nil {
		t.Fatalf("severed enrollment: free = %v, ctx %v; want it dropped and its context ended", s.free, st.ctx.Err())
	}
	found.b.disconnect("enrollment canceled by enroller")
	found.cancel()
	if kept := s.free[0]; kept.ctx.Err() != nil || kept.severed {
		t.Fatal("the late disconnect reached a recycled hostStream")
	}
}

// TestLateFramesForFinishedStream drives the same invariant over the wire:
// enrollments follow each other on one connection, each inheriting the
// previous one's host-side state, while the client keeps sending ops, a
// BODY-DONE and a CANCEL addressed to the stream that just finished. Every
// enrollment must still see exactly its own conversation, on its own stream.
func TestLateFramesForFinishedStream(t *testing.T) {
	in := core.NewInstance(pairScript("late", func(rc core.Ctx) error {
		return rc.Send(ids.Role("b"), rc.Performance())
	}))
	defer in.Close()
	_, addr := serveTestHost(t, in)
	b := dialRawClient(t, addr, "late", 2)
	next := func(stream uint64, want wire.MsgType) any {
		t.Helper()
		typ, on, _, m, err := b.c.ReadFrame()
		if err != nil || typ != want || on != stream {
			t.Fatalf("read %s on stream %d (%v), want %s on stream %d", typ, on, err, want, stream)
		}
		return m
	}
	for stream := uint64(1); stream <= 4; stream++ {
		aErr := make(chan error, 1)
		go func() {
			_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
			aErr <- err
		}()
		b.write(wire.MsgEnroll, stream, 0, &wire.Enroll{PID: "B", Role: "b"})
		ack := next(stream, wire.MsgOfferAck).(*wire.OfferAck)
		if stream > 1 {
			b.write(wire.MsgRecv, stream-1, 9, &wire.Recv{From: "a"})
			b.write(wire.MsgBodyDone, stream-1, 0, &wire.BodyDone{})
			b.write(wire.MsgCancel, stream-1, 0, &wire.Cancel{})
		}
		b.write(wire.MsgRecv, stream, 1, &wire.Recv{From: "a"})
		if res := next(stream, wire.MsgOpResult).(*wire.OpResult); res.Err != nil || res.Val != ack.Performance {
			t.Fatalf("stream %d: RECV = %+v, want performance %d's message", stream, res, ack.Performance)
		}
		// Ops behind BODY-DONE are left unserved in the backlog.
		b.write(wire.MsgBodyDone, stream, 0, &wire.BodyDone{})
		b.write(wire.MsgRecv, stream, 2, &wire.Recv{From: "a"})
		if cm := next(stream, wire.MsgComplete).(*wire.Complete); cm.Err != nil {
			t.Fatalf("stream %d: COMPLETE carries %+v", stream, cm.Err)
		}
		if err := <-aErr; err != nil {
			t.Fatalf("co-performer of stream %d: %v", stream, err)
		}
	}
}
