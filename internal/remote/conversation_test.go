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

			pe := b.await(wire.MsgError).(*wire.ProtoError)
			if !strings.Contains(pe.Msg, "operation flood") {
				t.Fatalf("ERROR = %q, want an operation flood", pe.Msg)
			}
			if typ, _, _, _, err := b.c.ReadFrame(); err == nil {
				t.Fatalf("connection still open after the flood: read %s", typ)
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
	st := &hostStream{b: &bridge{fw: probe, quit: make(chan struct{})}, ctx: ctx, cancel: cancel}
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
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go io.Copy(io.Discard, srv)
	mc := &muxConn{
		c:          wire.NewConn(cli), // speaks v1 until a handshake says otherwise
		hs:         &hostState{},
		stop:       make(chan struct{}),
		maxStreams: 1,
		lockstep:   true,
		streams:    make(map[uint64]*muxStream),
	}
	if !mc.tryReserve() {
		t.Fatal("fresh lock-step conversation refused its one stream")
	}
	st, err := mc.openStream()
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range []string{"first", "second"} {
		got := make(chan opOutcome, 1)
		go func() {
			res, err := st.op(context.Background(), wire.MsgRecv, &wire.Recv{From: "a"})
			got <- opOutcome{res, err}
		}()
		eventually(t, "the op to be pending", func() bool {
			st.mu.Lock()
			defer st.mu.Unlock()
			return len(st.pending) == 1
		})
		st.deliver(wire.MsgOpResult, 0, &wire.OpResult{Val: want})
		if out := <-got; out.err != nil || out.res.Val != want {
			t.Fatalf("op %d = %+v, %v; want %q", round, out.res, out.err, want)
		}
	}
}
