package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
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

func (c *countingTarget) Offer(ctx context.Context, e core.Enrollment, h core.Handoff) (core.Offered, error) {
	c.entered.Add(1)
	return c.Target.Offer(ctx, e, h)
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

// expectFlood reads b's connection to its close and holds what arrives to
// the flood contract (DESIGN.md "Failure semantics"): exactly one ERROR
// naming the flood, and for the flooding stream nothing but what the host
// still owed it — an OP-RESULT for each op the backlog had accepted (those
// numbered first to last; on v1, which has no numbers, at most that many),
// each at most once and in order, at most one ABORT notice, at most one
// COMPLETE and nothing behind it — never an OP-RESULT for the op that
// overflowed.
func expectFlood(t *testing.T, b *rawClient, first, last uint64) {
	t.Helper()
	var protoErrs, aborts, completes, results int
	next := first
	for {
		typ, stream, seq, m, err := b.c.ReadFrame()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("connection still open after the flood")
		}
		if err != nil {
			break
		}
		if completes > 0 && typ != wire.MsgError {
			t.Fatalf("after the flooding stream's COMPLETE: %s %+v", typ, m)
		}
		switch typ {
		case wire.MsgError:
			if protoErrs++; stream != 0 || !strings.Contains(m.(*wire.ProtoError).Msg, "operation flood") {
				t.Fatalf("ERROR on stream %d = %+v, want an operation flood on stream 0", stream, m)
			}
		case wire.MsgOpResult:
			results++
			if b.proto >= 2 && (seq < next || seq > last) {
				t.Fatalf("OP-RESULT for op %d, want one of %d..%d: ops the backlog accepted, each once, in order", seq, next, last)
			}
			next = seq + 1
		case wire.MsgAbort:
			aborts++
		case wire.MsgComplete:
			completes++
		default:
			t.Fatalf("after the flood: got %s %+v", typ, m)
		}
	}
	if protoErrs != 1 || aborts > 1 || completes > 1 || results > int(last-first+1) {
		t.Fatalf("after the flood: %d ERROR, %d ABORT, %d COMPLETE, %d OP-RESULT; want 1, <= 1, <= 1, <= %d",
			protoErrs, aborts, completes, results, last-first+1)
	}
}

// TestOperationFlood pins the network-facing op backlog: a client that
// writes more ops than streamOpBacklog without the host being able to serve
// them is told "operation flood" and dropped, and its co-performer unwinds
// with an abort naming it — the same limit, reply and attribution on both
// protocols — and pins what the host may still emit for the flooding stream
// on the way (expectFlood).
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
			// Owed: the blocked RECV's result and the backlog's, ops 1 to 17.
			// Op 18 is the flood.
			expectFlood(t, b, 1, streamOpBacklog+1)

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

// TestOperationFloodOfAnIdleStream is TestOperationFlood with the ops
// written in one burst to a stream with no op in hand: the first one takes
// the stream to a worker outside the backlog, however late the worker runs,
// so the flood is still the eighteenth op and the host owes the same set.
func TestOperationFloodOfAnIdleStream(t *testing.T) {
	for _, proto := range []int{1, 2} {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) {
			in := core.NewInstance(pairScript("idleflood", func(rc core.Ctx) error {
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
			b := dialRawClient(t, addr, "idleflood", proto)
			b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"})
			b.await(wire.MsgOfferAck)
			recv := &wire.Recv{From: "a"}
			for i := 0; i < streamOpBacklog+1; i++ {
				b.write(wire.MsgRecv, 1, uint64(i+1), recv)
			}
			if proto >= 2 { // all seventeen taken: a refused ENROLL behind them is answered, not flooded
				b.write(wire.MsgEnroll, 3, 0, &wire.Enroll{PID: "P", Role: "nosuch"})
				b.await(wire.MsgComplete)
			}
			b.write(wire.MsgRecv, 1, streamOpBacklog+2, recv)
			expectFlood(t, b, 1, streamOpBacklog+1)
			var ae *core.AbortError
			if err := <-aErr; !errors.As(err, &ae) || ae.Culprit != ids.Role("b") || !strings.Contains(ae.Reason, "operation flood") {
				t.Fatalf("co-performer err = %v, want an abort blaming b for an operation flood", err)
			}
		})
	}
}

// TestPipelinedOpsCrossByValue pins the hand-off from the connection's
// reader to the bridge. The reader decodes every frame of a type into the one
// struct the connection has for it, so an op waiting in the backlog must have
// been copied out: sixteen ops — the backlog's capacity — pipelined behind a
// blocked one, sends with distinct values alternating with receives on
// distinct tags, are each served with their own peer, tag and value, and each
// answered under its own sequence ID. The seventeenth behind a blocked op is
// the flood.
func TestPipelinedOpsCrossByValue(t *testing.T) {
	const ops = streamOpBacklog
	tag := func(i int) string { return fmt.Sprintf("t%d", i) }
	gate := make(chan struct{})
	in := core.NewInstance(pairScript("pipelined", func(rc core.Ctx) error {
		b := ids.Role("b")
		<-gate
		if err := rc.SendTag(b, "go", 0); err != nil {
			return err
		}
		for i := 0; i < ops; i++ {
			if i%2 == 1 {
				if err := rc.SendTag(b, tag(i), 100*i); err != nil {
					return err
				}
			} else if v, err := rc.RecvTag(b, tag(i)); err != nil || v != i {
				return fmt.Errorf("op %d: received %v (%v), want %d", i, v, err, i)
			}
		}
		// The second round's go-ahead never comes: a waits, in the fabric, for
		// a message b never sends, while b floods.
		_, err := rc.RecvTag(b, "never")
		return err
	}))
	defer in.Close()
	_, addr := serveTestHost(t, in)
	aErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
		aErr <- err
	}()

	b := dialRawClient(t, addr, "pipelined", 2)
	b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "B", Role: "b"})
	b.await(wire.MsgOfferAck)
	// pipeline blocks the bridge on a RECV that a answers only once gate is
	// fed, queues n ops behind it, and returns when the reader has seen them
	// all: the frame after them opens a second stream, whose rejection comes
	// back only once the reader is past everything sent before it.
	seq := uint64(0)
	pipeline := func(n int, probe uint64) {
		seq++
		b.write(wire.MsgRecv, 1, seq, &wire.Recv{From: "a", Tag: "go"})
		for i := 0; i < n; i++ {
			seq++
			if i%2 == 1 {
				b.write(wire.MsgRecv, 1, seq, &wire.Recv{From: "a", Tag: tag(i)})
			} else {
				b.write(wire.MsgSend, 1, seq, &wire.Send{To: "a", Tag: tag(i), Val: i})
			}
		}
		b.write(wire.MsgEnroll, probe, 0, &wire.Enroll{PID: "B2", Role: "nosuch"})
	}

	pipeline(ops, 2)
	if typ, stream, _, m, err := b.c.ReadFrame(); err != nil || typ != wire.MsgComplete || stream != 2 {
		t.Fatalf("probe answered %s %+v on stream %d (%v), want COMPLETE on stream 2", typ, m, stream, err)
	}
	gate <- struct{}{}
	for want := uint64(1); want <= seq; want++ {
		typ, stream, got, m, err := b.c.ReadFrame()
		if err != nil || typ != wire.MsgOpResult || stream != 1 || got != want {
			t.Fatalf("read %s on stream %d seq %d (%v), want OP-RESULT on stream 1 seq %d", typ, stream, got, err, want)
		}
		res, i := m.(*wire.OpResult), int(want)-2
		var wantVal any
		switch {
		case i < 0:
			wantVal = 0 // the round's go-ahead
		case i%2 == 1:
			wantVal = 100 * i
		}
		if res.Err != nil || res.Val != wantVal {
			t.Fatalf("op %d answered %+v (err %+v), want value %v", want, res, res.Err, wantVal)
		}
	}

	// Second round: one op more than the backlog holds.
	first := seq + 1
	pipeline(ops+1, 3)
	expectFlood(t, b, first, first+ops)
	var ae *core.AbortError
	if err := <-aErr; !errors.As(err, &ae) || ae.Culprit != ids.Role("b") {
		t.Fatalf("co-performer err = %v, want an abort blaming b", err)
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

	s := &hostSession{h: h, lockstep: true, streams: make(map[uint64]*hostStream)}
	probe := &slotProbe{s: s}
	ctx, cancel := context.WithCancel(context.Background())
	st := &hostStream{s: s, b: bridge{fw: probe, opCh: make(chan hostOp, streamOpBacklog)}, ctx: ctx, cancel: cancel}
	s.streams[0] = st
	st.raise(evEnroll)
	// An enrollment the target rejects runs the reader's whole path:
	// admission, target.Offer, terminal COMPLETE.
	st.enroll = wire.Enroll{PID: "P", Role: "nosuch"}
	s.offer(st)

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
		fw:         c,
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
		sl, err := st.begin()
		if err != nil {
			got <- opOutcome{err: err}
			return
		}
		sl.recv = wire.Recv{From: "a"}
		res, err := st.finish(sl, wire.MsgRecv, &sl.recv)
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

// abortError reports the performance-abort error an ABORT frame left on st.
func (st *muxStream) abortError() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.abortErr
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
		case <-st.events:
			// The event's content is in the stream: the reader left it there
			// before it posted the event, and takes no second OFFER-ACK.
			if st.ack.Performance != int(st.id) {
				t.Fatalf("stream %d received a frame addressed to stream %d", st.id, st.ack.Performance)
			}
		default:
		}
		mc.closeStream(st, true)
	}
	stop.Store(true)
	<-readerDone
}

// TestHostStreamRecycling is the host half of the invariant, at the point
// where finish disposes of an ended enrollment's hostStream. One that ran
// its course is kept, emptied of the ops the client queued behind BODY-DONE.
// One that a CANCEL (or a flood, or teardown) was aimed at is not:
// markSevered marked it in the critical section that found it, so the
// sever that follows it — however late — hits no successor.
func TestHostStreamRecycling(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h := NewHost(in, HostConfig{})
	defer h.Close()
	s := &hostSession{h: h, streams: make(map[uint64]*hostStream)}
	// Each enrollment is one the target rejects, which the reader ends itself.
	enroll := func(stream uint64) *hostStream {
		st := &hostStream{s: s, enroll: wire.Enroll{PID: "P", Role: "nosuch"}}
		st.b.fw, st.b.streamID, st.b.opCh = &slotProbe{s: s}, stream, make(chan hostOp, streamOpBacklog)
		st.ctx, st.cancel = context.WithCancel(context.Background())
		s.streams[stream] = st
		st.raise(evEnroll)
		return st
	}

	st := enroll(1)
	for i := 0; i < 3; i++ {
		st.b.opCh <- opOf(wire.MsgRecv, uint64(i), &wire.Recv{From: "a"})
	}
	s.offer(st)
	if len(s.free) != 1 || s.free[0] != st || len(st.b.opCh) != 0 || st.ctx.Err() != nil {
		t.Fatalf("finished enrollment: free = %v, %d ops left, ctx %v; want it kept, empty and live", s.free, len(st.b.opCh), st.ctx.Err())
	}
	if s.markSevered(1, "enrollment canceled by enroller") != nil {
		t.Fatal("a CANCEL for the finished stream still found it")
	}

	st = enroll(2)
	found := s.markSevered(2, "enrollment canceled by enroller")
	if found != st {
		t.Fatal("a CANCEL for the live stream did not find it")
	}
	s.offer(st)
	if len(s.free) != 1 || s.free[0] == st || st.ctx.Err() == nil {
		t.Fatalf("severed enrollment: free = %v, ctx %v; want it dropped and its context ended", s.free, st.ctx.Err())
	}
	s.sever(found)
	if kept := s.free[0]; kept.ctx.Err() != nil || kept.severed != "" {
		t.Fatal("the late sever reached a recycled hostStream")
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
		ack := *next(stream, wire.MsgOfferAck).(*wire.OfferAck) // kept across the reads below: a copy
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

// TestStreamEventsNeverDrop pins the bound the conversation's single-source
// waits rest on: an enrollment can have four events — OFFER-ACK, one terminal
// frame, the connection's death, its context's end — each posted at most
// once, and the stream's channel holds all four, so the reader never blocks
// and nothing is dropped. A repeated OFFER-ACK or terminal frame (a host that
// misbehaves) is refused before it costs a slot. A fifth kind of event, should
// a change add one without its slot, is counted rather than lost in silence.
func TestStreamEventsNeverDrop(t *testing.T) {
	mc := pipeMux(t, 2)
	st := openNext(t, mc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st.ctx = ctx
	dropped := streamEventsDropped.Load()

	for i := 0; i < 2; i++ { // the repeats must be refused
		mc.dispatch(wire.MsgOfferAck, st.id, 0, &wire.OfferAck{Performance: 7 + i})
	}
	for i := 0; i < 2; i++ {
		mc.dispatch(wire.MsgComplete, st.id, 0, &wire.Complete{Performance: 7 + i})
		mc.dispatch(wire.MsgDrain, st.id, 0, &wire.Drain{})
	}
	lost := fmt.Errorf("%w: test", ErrConnLost)
	st.fatal(lost)
	mc.withdraw(st)

	if len(st.events) != maxStreamEvents || cap(st.events) != maxStreamEvents {
		t.Fatalf("%d events in a channel of %d, want all %d", len(st.events), cap(st.events), maxStreamEvents)
	}
	want := []streamEvent{{typ: wire.MsgOfferAck}, {typ: wire.MsgComplete}, {err: lost}, {err: context.Canceled}}
	for i, w := range want {
		if ev := <-st.events; ev != w {
			t.Fatalf("event %d = %+v, want %+v", i, ev, w)
		}
	}
	if st.ack.Performance != 7 || st.cm.Performance != 7 {
		t.Fatalf("the stream holds OFFER-ACK %d and COMPLETE %d, want the first of each (7)", st.ack.Performance, st.cm.Performance)
	}
	if got := streamEventsDropped.Load() - dropped; got != 0 {
		t.Fatalf("%d events dropped", got)
	}

	for i := 0; i <= maxStreamEvents; i++ {
		st.event(streamEvent{err: lost})
	}
	if got := streamEventsDropped.Load() - dropped; got != 1 {
		t.Fatalf("one event too many for the channel counted %d drops, want 1", got)
	}
}

// TestEnrollmentPostsNoMoreEventsThanItsChannelHolds fires every source of a
// stream event through its own entry, as often as it can fire and the
// repeatable ones more often — the host repeating OFFER-ACK and both terminal
// frames, the conversation failing twice, the context's withdraw, which
// the watch runs once — on both protocol versions (v1's withdraw fails
// the conversation too), on a new stream and on a recycled one. What one
// enrollment posts must fit the channel openStream made, whose capacity is
// maxStreamEvents and no literal beside it: a source added without its slot
// shows here as a drop.
func TestEnrollmentPostsNoMoreEventsThanItsChannelHolds(t *testing.T) {
	for _, version := range []int{1, 2} {
		for _, recycled := range []bool{false, true} {
			mc := pipeMux(t, version)
			st := openNext(t, mc)
			if recycled {
				mc.closeStream(st, true)
				if again := openNext(t, mc); again != st {
					t.Fatalf("v%d: the stream was not recycled", version)
				}
			}
			if cap(st.events) != maxStreamEvents {
				t.Fatalf("v%d: a stream's channel holds %d events, maxStreamEvents is %d", version, cap(st.events), maxStreamEvents)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			st.ctx = ctx
			dropped := streamEventsDropped.Load()
			for i := 0; i < 2; i++ {
				mc.dispatch(wire.MsgOfferAck, st.id, 0, &wire.OfferAck{})
				mc.dispatch(wire.MsgDrain, st.id, 0, &wire.Drain{})
				mc.dispatch(wire.MsgComplete, st.id, 0, &wire.Complete{})
				mc.fail(fmt.Errorf("%w: test", ErrConnLost))
			}
			mc.withdraw(st)
			if got := streamEventsDropped.Load() - dropped; got != 0 {
				t.Fatalf("v%d recycled=%v: one enrollment posted %d events more than the %d its channel holds",
					version, recycled, got, cap(st.events))
			}
		}
	}
}

// TestContextEndAtEveryWait cancels an enrollment's context at each point
// where the client can be waiting. Nothing on the client watches the context
// but the withdraw that the watch runs, so each row checks that the
// withdraw reaches the wait in question: Enroll returns ctx.Err() within the
// test's bound; the host is told by CANCEL (the connection is pinned open by
// a second reservation, so nothing else could tell it) and — where the role
// was still performing — aborts the performance blaming this role; the
// stream, which the withdraw names, is not recycled; and nothing is left
// running afterwards.
func TestContextEndAtEveryWait(t *testing.T) {
	a, b := ids.Role("a"), ids.Role("b")
	for _, tc := range []struct {
		name    string
		enrollA bool // a local co-performer fills the cast, so b is assigned
		// body is b's; it closes reached at the wait under test and, if it
		// outlives the cancellation, returns what its next op returned.
		body   func(rc core.Ctx, reached chan<- struct{}, cancelled <-chan struct{}) error
		aborts bool // b was performing: the host must abort, blaming b
		held   bool // b's body returned; a, still at work, holds its release
	}{
		{name: "before OFFER-ACK"},
		{name: "op in flight", enrollA: true, aborts: true,
			body: func(rc core.Ctx, reached chan<- struct{}, _ <-chan struct{}) error {
				close(reached)
				_, err := rc.Recv(a) // a never sends
				return err
			}},
		{name: "body computing between ops", enrollA: true, aborts: true,
			body: func(rc core.Ctx, reached chan<- struct{}, cancelled <-chan struct{}) error {
				close(reached)
				<-cancelled
				return rc.Send(a, 1)
			}},
		{name: "after BODY-DONE", enrollA: true, held: true,
			body: func(core.Ctx, chan<- struct{}, <-chan struct{}) error { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			reached, cancelled, aHold := make(chan struct{}), make(chan struct{}), make(chan struct{})
			in := core.NewInstance(pairScript("ctxend", func(rc core.Ctx) error {
				if tc.held { // reached is when the host has b's BODY-DONE
					for !rc.Terminated(b) {
						time.Sleep(time.Millisecond)
					}
					close(reached)
					<-aHold
					return nil
				}
				for { // take whatever b sends, until the performance aborts
					if _, err := rc.Recv(b); err != nil {
						return err
					}
				}
			}))
			h, addr := serveTestHost(t, in)
			e := NewEnroller(addr, EnrollerConfig{})
			mc, err := e.acquireMux(context.Background(), e.hostList()[0])
			if err != nil {
				t.Fatal(err)
			}
			if !mc.tryReserve() { // the pin: a withdrawn enrollment retires only an idle connection
				t.Fatal("no second slot on a fresh connection")
			}

			aErr := make(chan error, 1)
			if tc.enrollA {
				go func() {
					_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: a})
					aErr <- err
				}()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			bErr := make(chan error, 1)
			go func() {
				_, err := e.enrollMux(ctx, mc, core.Enrollment{PID: "B", Role: b, Body: func(rc core.Ctx) error {
					return tc.body(rc, reached, cancelled)
				}})
				bErr <- err
			}()

			switch {
			case tc.body == nil:
				eventually(t, "b's offer to go pending", func() bool { return in.PendingOffers() == 1 })
			case tc.name == "op in flight":
				<-reached
				eventually(t, "b's op to be in flight", func() bool {
					mc.mu.Lock()
					defer mc.mu.Unlock()
					for _, st := range mc.streams {
						return pendingOps(st) == 1
					}
					return false
				})
			default:
				<-reached
			}
			cancel()
			close(cancelled)

			select {
			case err := <-bErr:
				if err != context.Canceled {
					t.Fatalf("Enroll = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Enroll still waiting 5s after its context ended")
			}
			mc.mu.Lock()
			live, free := len(mc.streams), len(mc.free)
			mc.mu.Unlock()
			if live != 0 || free != 0 {
				t.Fatalf("after the withdraw: %d streams live, %d kept for reuse; want 0 and 0", live, free)
			}

			// The host's side: told by CANCEL, on a connection that stays up.
			switch {
			case tc.body == nil:
				eventually(t, "the host to withdraw the offer", func() bool { return in.PendingOffers() == 0 })
			case tc.aborts:
				var ae *core.AbortError
				select {
				case err := <-aErr:
					if !errors.As(err, &ae) || ae.Culprit != b || !strings.Contains(ae.Reason, "canceled by enroller") {
						t.Fatalf("co-performer err = %v, want an abort blaming b for a CANCEL", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("no abort 5s after the CANCEL")
				}
			default:
				close(aHold)
				if err := <-aErr; err != nil {
					t.Fatalf("co-performer of a role cancelled after its body returned: %v", err)
				}
			}
			if got := h.Stats().Conns; got != 1 {
				t.Fatalf("conns = %d, want the pinned 1: the host learned of the withdrawal from a closed connection", got)
			}

			e.Close()
			mc.fail(core.ErrClosed) // the pin keeps a retired connection from reaping itself
			h.Close()
			in.Close()
			eventually(t, "every goroutine of the row to end", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// offerWriter is a stream's frame writer whose OFFER-ACK write ends in err,
// and which keeps every COMPLETE's error.
type offerWriter struct {
	err       error
	mu        sync.Mutex
	completes []error
}

func (w *offerWriter) WriteFrame(t wire.MsgType, _, _ uint64, m any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch t {
	case wire.MsgOfferAck:
		return w.err
	case wire.MsgComplete:
		w.completes = append(w.completes, m.(*wire.Complete).Err.Err())
	}
	return nil
}

// TestDisconnectBeforeRunBlamesTheRole pins DESIGN.md "Failure semantics": an
// enrollment whose enroller vanished after the offer was placed but before
// the role's first frame is a disconnect culprit like one that vanished a
// frame later, whoever notices. When the sever came first — marked while the
// reader was still offering, which is what a teardown from another goroutine
// does — the assignment's hand-off writes nothing and aborts with the sever's
// reason, whatever would become of its OFFER-ACK; before this was decided, a
// write into a buffer nobody flushes succeeded, and the co-performer was told
// "role already finished" about a role that was cut. When the OFFER-ACK fails
// first, that is the disconnect too, not a failure class of its own. Either
// way the role ends as lost.
func TestDisconnectBeforeRunBlamesTheRole(t *testing.T) {
	for _, tc := range []struct {
		name    string
		severed string
		werr    error // of the OFFER-ACK's write
		want    string
	}{
		{"disconnected, ack would buffer", enrollerGone, nil, enrollerGone},
		{"disconnected, ack would fail", enrollerGone, io.ErrClosedPipe, enrollerGone},
		{"ack fails first", "", io.ErrClosedPipe, enrollerGone + ": offer not delivered"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := core.NewInstance(pairScript("lost", func(rc core.Ctx) error {
				_, err := rc.Recv(ids.Role("b"))
				return err
			}))
			defer in.Close()
			h := NewHost(in, HostConfig{})
			defer h.Close()
			fw := &offerWriter{err: tc.werr}
			s := &hostSession{h: h, fw: fw, streams: make(map[uint64]*hostStream)}
			st := &hostStream{s: s, enroll: wire.Enroll{PID: "B", Role: "b"}, severed: tc.severed}
			st.b.fw, st.b.streamID, st.b.opCh = fw, 1, make(chan hostOp, streamOpBacklog)
			st.ctx, st.cancel = context.WithCancel(context.Background())
			s.streams[1] = st
			h.activeStreams.Add(1)
			st.raise(evEnroll)
			aErr := make(chan error, 1)
			go func() {
				_, err := in.Enroll(context.Background(), core.Enrollment{PID: "A", Role: ids.Role("a")})
				aErr <- err
			}()
			eventually(t, "a's offer", func() bool { return in.PendingOffers() == 1 })
			s.offer(st) // the cast forms, and is handed off, inside the reader's Offer
			var ae *core.AbortError
			if err := <-aErr; !errors.As(err, &ae) || ae.Culprit != ids.Role("b") || ae.Reason != tc.want {
				t.Fatalf("a: %v, want an abort blaming b with %q", err, tc.want)
			}
			fw.mu.Lock()
			defer fw.mu.Unlock()
			if len(fw.completes) != 1 || !strings.Contains(fw.completes[0].Error(), errEnrollerLost.Error()) {
				t.Fatalf("COMPLETEs %v, want one: the role lost", fw.completes)
			}
		})
	}
}
