package remote_test

// Session-resumption coverage: the two-tier failure model end to end.
// Transport failures (a severed connection inside the host's resume window)
// must be invisible to role bodies — the performance completes, in-flight
// ops exactly once — while session failures (grace expired, resumption
// disabled, enroller gone for good) must reproduce the pre-resumption
// *AbortError taxonomy byte for byte.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/wire"
)

// cutFaults severs the client's live connection at op entry, exactly as many
// times as armed. The other fault classes are quiet.
type cutFaults struct{ armed atomic.Int64 }

func (f *cutFaults) FrameDelay() time.Duration     { return 0 }
func (f *cutFaults) DropConn() bool                { return false }
func (f *cutFaults) StallHeartbeat() time.Duration { return 0 }
func (f *cutFaults) Overload() bool                { return false }
func (f *cutFaults) CutConn() bool {
	for {
		n := f.armed.Load()
		if n <= 0 {
			return false
		}
		if f.armed.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// netProxy forwards TCP to a target and lets the test sever live links
// (cutConns: a blip the client can redial through) or go dark entirely
// (stop: redials are refused, forcing the resume window to expire).
type netProxy struct {
	t      *testing.T
	target string
	l      net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newNetProxy(t *testing.T, target string) *netProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &netProxy{t: t, target: target, l: l, conns: map[net.Conn]struct{}{}}
	go p.accept()
	t.Cleanup(p.stop)
	return p
}

func (p *netProxy) addr() string { return p.l.Addr().String() }

func (p *netProxy) accept() {
	for {
		down, err := p.l.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		p.conns[down] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		go func() { _, _ = io.Copy(up, down); up.Close(); down.Close() }()
		go func() { _, _ = io.Copy(down, up); down.Close(); up.Close() }()
	}
}

func (p *netProxy) cutConns() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.conns = map[net.Conn]struct{}{}
	p.mu.Unlock()
}

func (p *netProxy) stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.l.Close()
	p.cutConns()
}

// TestResumeInvisibleCut is the tentpole acceptance check in miniature: with
// a resume window open, a connection severed at the entry of a client op
// must be invisible — the role body completes the performance with the right
// value and no error, because the op frame rides the retransmit ring onto
// the redialed connection.
func TestResumeInvisibleCut(t *testing.T) {
	resumedBefore := metrics.Get(metrics.SessionsResumed).Load()

	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{ResumeWindow: 5 * time.Second})

	faults := &cutFaults{}
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Faults: faults})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for round := 1; round <= 2; round++ {
		faults.armed.Store(1) // sever the conn at the recipient's Recv
		done := make(chan error, 1)
		go func() { done <- enrollRecipient(ctx, enr, fmt.Sprintf("blip-%d", round)) }()
		waitCond(t, "offer to go pending", func() bool { return in.PendingOffers() == 1 })
		if err := patterns.EnrollSender(ctx, in, "sender", "x"); err != nil {
			t.Fatalf("sender round %d: %v", round, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("recipient round %d: %v (the cut must be invisible)", round, err)
		}
	}

	if got := metrics.Get(metrics.SessionsResumed).Load() - resumedBefore; got < 2 {
		t.Fatalf("sessions resumed = %d, want >= 2 (one per cut)", got)
	}
	// A healed blip never surfaced an error, so it must not have counted
	// against the host's breaker.
	if hh := enr.Hosts()[0]; hh.State != remote.BreakerClosed || hh.Failures != 0 {
		t.Fatalf("breaker after resumed blips = %v (failures %d), want closed/0", hh.State, hh.Failures)
	}
}

// TestResumeSurvivesCutWhileBlockedInOp cuts while the recipient is parked
// inside a Recv whose result has not been produced yet: the RESUME exchange
// must splice the fresh connection in, and the op result — produced after
// the blip — must arrive on it.
func TestResumeSurvivesCutWhileBlockedInOp(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, hostAddr := startHost(t, in, remote.HostConfig{ResumeWindow: 5 * time.Second})
	px := newNetProxy(t, hostAddr)

	enr := remote.NewEnroller(px.addr(), remote.EnrollerConfig{})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	recErr := make(chan error, 1)
	go func() { recErr <- enrollRecipient(ctx, enr, "patient") }()
	waitCond(t, "offer to go pending", func() bool { return in.PendingOffers() == 1 })

	gate := make(chan struct{})
	sendErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(ctx, core.Enrollment{
			PID: "S", Role: ids.Role(patterns.RoleSender),
			Body: func(rc core.Ctx) error {
				<-gate
				return rc.SendAll([]ids.RoleRef{ids.Member(patterns.RoleRecipient, 1)}, "late")
			},
		})
		sendErr <- err
	}()

	// Let the recipient's Recv op reach the host and park in the fabric,
	// then blip the link. (If the cut lands before the op is written, the
	// ring replays it — invisible either way.)
	time.Sleep(150 * time.Millisecond)
	px.cutConns()
	time.Sleep(50 * time.Millisecond)
	close(gate)

	if err := <-sendErr; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := <-recErr; err != nil {
		t.Fatalf("recipient: %v (blip while blocked in Recv must be invisible)", err)
	}
}

// TestResumedConnOutlivesResumeWindow holds a stream blocked in one op for
// three resume windows after a single cut. The client bounds its wait for
// the RESUME-ACK with a read timeout of one window; that deadline must come
// off the socket once the ack is in, or the healthy resumed connection reads
// "i/o timeout" a window later and cuts itself again, once per window for as
// long as the conversation is quiet. One blip is one resumption, and the op
// it interrupted completes exactly once.
func TestResumedConnOutlivesResumeWindow(t *testing.T) {
	const window = 200 * time.Millisecond
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, hostAddr := startHost(t, in, remote.HostConfig{ResumeWindow: window})
	px := newNetProxy(t, hostAddr)
	enr := remote.NewEnroller(px.addr(), remote.EnrollerConfig{})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var received atomic.Int64
	recErr := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "patient", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: func(rc core.Ctx) error {
				v, err := rc.Recv(ids.Role(patterns.RoleSender))
				if err == nil && v == "late" {
					received.Add(1)
				}
				return err
			},
		})
		recErr <- err
	}()
	waitCond(t, "offer to go pending", func() bool { return in.PendingOffers() == 1 })

	gate := make(chan struct{})
	sendErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(ctx, core.Enrollment{
			PID: "S", Role: ids.Role(patterns.RoleSender),
			Body: func(rc core.Ctx) error {
				<-gate
				return rc.SendAll([]ids.RoleRef{ids.Member(patterns.RoleRecipient, 1)}, "late")
			},
		})
		sendErr <- err
	}()

	// Let the recipient's Recv park in the host's fabric, then blip once.
	time.Sleep(100 * time.Millisecond)
	resumedBefore := metrics.Get(metrics.SessionsResumed).Load()
	px.cutConns()
	waitCond(t, "the session to resume", func() bool {
		return metrics.Get(metrics.SessionsResumed).Load() > resumedBefore
	})
	time.Sleep(3 * window)
	close(gate)

	if err := <-sendErr; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := <-recErr; err != nil {
		t.Fatalf("recipient: %v (a quiet resumed connection must stay up)", err)
	}
	if got := metrics.Get(metrics.SessionsResumed).Load() - resumedBefore; got != 1 {
		t.Fatalf("sessions resumed = %d after one cut, want exactly 1", got)
	}
	if got := received.Load(); got != 1 {
		t.Fatalf("the interrupted Recv completed %d times, want 1", got)
	}
}

// TestResumeOffCutPreservesAbortTaxonomy is the counterfactual: with no
// resume window configured, the identical cut must reproduce today's abort
// behavior exactly — the client surfaces ErrConnLost, co-performers unwind
// with an *AbortError blaming the disconnected role, and the next cast
// performs normally.
func TestResumeOffCutPreservesAbortTaxonomy(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(2))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{}) // resumption off

	faults := &cutFaults{}
	faults.armed.Store(1)
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Faults: faults})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	recvErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(ctx, core.Enrollment{PID: "R2", Role: ids.Member(patterns.RoleRecipient, 2)})
		recvErr <- err
	}()
	sendErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(ctx, core.Enrollment{
			PID: "S", Role: ids.Role(patterns.RoleSender), Args: []any{"x"},
		})
		sendErr <- err
	}()
	remoteErr := make(chan error, 1)
	go func() { remoteErr <- enrollRecipient(ctx, enr, "doomed") }()

	err := <-sendErr
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("sender err = %v, want *AbortError", err)
	}
	if ae.Culprit != ids.Member(patterns.RoleRecipient, 1) {
		t.Fatalf("culprit = %v, want recipient[1]", ae.Culprit)
	}
	if got := <-remoteErr; !errors.Is(got, remote.ErrConnLost) {
		t.Fatalf("remote recipient err = %v, want ErrConnLost", got)
	}
	if err := <-recvErr; err != nil && !errors.Is(err, core.ErrPerformanceAborted) {
		t.Fatalf("recipient[2] err = %v", err)
	}
}

// TestResumeWindowExpiryRestoresAbortTaxonomy pins the second failure tier:
// when the peer stays unreachable past the grace window, the parked session
// hardens into exactly the pre-resumption outcome — the host aborts the
// performance blaming the vanished role, and the client surfaces
// ErrConnLost.
func TestResumeWindowExpiryRestoresAbortTaxonomy(t *testing.T) {
	parkedBefore := metrics.Get(metrics.SessionsParked).Load()
	expiredBefore := metrics.Get(metrics.SessionsExpired).Load()

	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, hostAddr := startHost(t, in, remote.HostConfig{ResumeWindow: 400 * time.Millisecond})
	px := newNetProxy(t, hostAddr)

	enr := remote.NewEnroller(px.addr(), remote.EnrollerConfig{})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	recErr := make(chan error, 1)
	go func() { recErr <- enrollRecipient(ctx, enr, "stranded") }()
	waitCond(t, "offer to go pending", func() bool { return in.PendingOffers() == 1 })

	// Go dark: sever the link and refuse every redial. The offer survives
	// the park, so the sender still completes the cast — and then aborts
	// when the grace expires.
	px.stop()
	sendErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(ctx, core.Enrollment{
			PID: "S", Role: ids.Role(patterns.RoleSender), Args: []any{"x"},
		})
		sendErr <- err
	}()

	err := <-sendErr
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("sender err = %v, want *AbortError after window expiry", err)
	}
	if ae.Culprit != ids.Member(patterns.RoleRecipient, 1) {
		t.Fatalf("culprit = %v, want recipient[1]", ae.Culprit)
	}
	if got := <-recErr; !errors.Is(got, remote.ErrConnLost) {
		t.Fatalf("remote recipient err = %v, want ErrConnLost", got)
	}
	if got := metrics.Get(metrics.SessionsParked).Load() - parkedBefore; got < 1 {
		t.Fatalf("sessions parked = %d, want >= 1", got)
	}
	if got := metrics.Get(metrics.SessionsExpired).Load() - expiredBefore; got < 1 {
		t.Fatalf("sessions expired = %d, want >= 1", got)
	}
}

// TestEnrollerCloseFreesHostSession: closing the enroller while its
// resumable connection idles in the pool sends BYE ahead of the close, so
// the host unregisters the session promptly instead of holding the grace
// window open for a peer that will never return.
func TestEnrollerCloseFreesHostSession(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{ResumeWindow: time.Hour})

	enr := remote.NewEnroller(addr, remote.EnrollerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() { done <- enrollRecipient(ctx, enr, "onceler") }()
	waitCond(t, "offer to go pending", func() bool { return in.PendingOffers() == 1 })
	if err := patterns.EnrollSender(ctx, in, "sender", "x"); err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("enrollment: %v", err)
	}
	waitCond(t, "session registration", func() bool { return h.Stats().Sessions == 1 })

	enr.Close()
	// With an hour-long window, only the BYE/teardown path can get this to
	// zero inside the test's lifetime.
	waitCond(t, "host to free the session", func() bool { return h.Stats().Sessions == 0 })
}

// TestEnrollerCloseDuringReconnectNoLeak is the satellite-3 goroutine-leak
// regression: an enroller closed while its reconnect loop is mid-backoff
// against an unreachable host must terminate the loop (the redial closure
// reports ErrClosed) without leaking the dial goroutine, and the host frees
// the parked session on its own Close.
func TestEnrollerCloseDuringReconnectNoLeak(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, hostAddr := startHost(t, in, remote.HostConfig{ResumeWindow: time.Hour})

	base := runtime.NumGoroutine()

	px := newNetProxy(t, hostAddr)
	enr := remote.NewEnroller(px.addr(), remote.EnrollerConfig{})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	recErr := make(chan error, 1)
	go func() { recErr <- enrollRecipient(ctx, enr, "leaky") }()
	waitCond(t, "offer to go pending", func() bool { return in.PendingOffers() == 1 })

	// Strand the client mid-enrollment: the hour-long window keeps the
	// reconnect loop dialing a dead address until Close cuts it short.
	px.stop()
	time.Sleep(50 * time.Millisecond) // let the reconnect loop start
	enr.Close()

	if err := <-recErr; err == nil {
		t.Fatal("stranded enrollment returned nil, want an error")
	}

	// Freeing the parked host session is Close's job on the host side.
	h.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after close during reconnect: %d, baseline %d",
		runtime.NumGoroutine(), base)
}

// TestHeartbeatClampKeepsShortTimeoutAlive is the satellite-2 regression
// for the HeartbeatInterval >= HeartbeatTimeout footgun: the host advertises
// its timeout in the handshake and the client clamps its pump below it, so a
// performance that sits idle longer than the host's (short) timeout — with a
// client whose configured interval (default 3s) would starve it — survives.
func TestHeartbeatClampKeepsShortTimeoutAlive(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{HeartbeatTimeout: 300 * time.Millisecond})

	enr := remote.NewEnroller(addr, remote.EnrollerConfig{}) // default 3s interval
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	recErr := make(chan error, 1)
	go func() { recErr <- enrollRecipient(ctx, enr, "clamped") }()
	waitCond(t, "offer to go pending", func() bool { return in.PendingOffers() == 1 })

	gate := make(chan struct{})
	sendErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(ctx, core.Enrollment{
			PID: "S", Role: ids.Role(patterns.RoleSender),
			Body: func(rc core.Ctx) error {
				<-gate
				return rc.SendAll([]ids.RoleRef{ids.Member(patterns.RoleRecipient, 1)}, "kept-alive")
			},
		})
		sendErr <- err
	}()

	// The remote recipient now sits silent in its Recv for 3x the host's
	// heartbeat timeout. Unclamped, the host would blame it and abort.
	time.Sleep(900 * time.Millisecond)
	close(gate)

	if err := <-sendErr; err != nil {
		t.Fatalf("sender: %v (host aborted an alive-but-idle enroller?)", err)
	}
	if err := <-recErr; err != nil {
		t.Fatalf("recipient: %v", err)
	}
}

// TestNewEnrollmentsAvoidDetachedConn: while a resumable conversation is
// detached mid-reconnect, new enrollments must not queue behind it — they
// dial a fresh connection and proceed.
func TestNewEnrollmentsAvoidDetachedConn(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, hostAddr := startHost(t, in, remote.HostConfig{ResumeWindow: 10 * time.Second})
	px := newNetProxy(t, hostAddr)

	enr := remote.NewEnroller(px.addr(), remote.EnrollerConfig{})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First enrollment parks mid-performance, then its link is severed; it
	// stays detached (reconnect keeps failing) while the proxy is wedged...
	// actually keep the listener up: the reconnect succeeds, but only after
	// the second enrollment has already dialed its own fresh connection.
	rec1 := make(chan error, 1)
	go func() { rec1 <- enrollRecipient(ctx, enr, "first") }()
	waitCond(t, "first offer pending", func() bool { return in.PendingOffers() == 1 })

	px.cutConns()

	// Immediately offer a second enrollment: the detached mux must refuse
	// the slot, so this dials fresh (ConnsV2 grows) rather than queueing.
	rec2 := make(chan error, 1)
	go func() { rec2 <- enrollRecipient(ctx, enr, "second") }()
	waitCond(t, "both offers pending", func() bool { return in.PendingOffers() == 2 })

	for round := 0; round < 2; round++ {
		if err := patterns.EnrollSender(ctx, in, ids.PID(fmt.Sprintf("sender-%d", round)), "v"); err != nil {
			t.Fatalf("sender %d: %v", round, err)
		}
	}
	if err := <-rec1; err != nil {
		t.Fatalf("first recipient: %v", err)
	}
	if err := <-rec2; err != nil {
		t.Fatalf("second recipient: %v", err)
	}
	if got := h.Stats().ConnsV2; got < 2 {
		t.Fatalf("ConnsV2 = %d, want >= 2 (second enrollment must not ride the detached conn)", got)
	}
}

// resumableDial handshakes one raw v2 connection that asks for resumption.
func resumableDial(t *testing.T, addr, script string) (*wire.Conn, wire.HelloAck) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	c := wire.NewConn(nc)
	ack, err := wire.ClientHandshakeV(c, script, wire.MaxVersion)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	c.SetReadTimeout(10 * time.Second)
	return c, ack
}

// TestResumeFindsSessionCutBeforeFirstEnroll is the regression test for a
// session that a cut used to destroy: one with a resume token and no live
// stream yet, because the client's first ENROLL was still in flight — in the
// socket the cut emptied, or only in the client's ring. The host parked only
// sessions with live streams (and built no session at all for a connection
// that died before its first frame), so the client's RESUME was refused
// "unknown or expired session" and the enrollment, which had every right to
// survive the blip, failed. The session now parks on having a token: the
// RESUME is answered RESUME-ACK and the replayed ENROLL runs.
func TestResumeFindsSessionCutBeforeFirstEnroll(t *testing.T) {
	nop := func(core.Ctx) error { return nil }
	for _, tc := range []struct {
		name       string
		firstFrame bool // a HEARTBEAT reaches the host before the cut
	}{{"cut before the first frame", false}, {"cut after a heartbeat", true}} {
		t.Run(tc.name, func(t *testing.T) {
			in := core.NewInstance(core.NewScript("solo").Role("p", nop).MustBuild())
			defer in.Close()
			h, addr := startHost(t, in, remote.HostConfig{ResumeWindow: time.Minute})

			c1, ack := resumableDial(t, addr, "solo")
			if ack.ResumeToken == "" {
				t.Fatal("the host granted no resume token")
			}
			sess := wire.NewSession(c1, ack.ResumeToken, 0)
			if tc.firstFrame {
				if err := sess.WriteFrame(wire.MsgHeartbeat, 0, 0, &wire.Heartbeat{}); err != nil {
					t.Fatal(err)
				}
				waitCond(t, "the host to open the session", func() bool { return h.Stats().Sessions == 1 })
			}
			// The blip: the connection goes, and the ENROLL goes with it — it
			// is in the client's ring and nowhere else.
			sess.Detach()
			c1.Close()
			if err := sess.WriteFrame(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "P", Role: "p"}); err != nil {
				t.Fatal(err)
			}
			waitCond(t, "the host to notice the cut", func() bool { return h.Stats().Conns == 0 })

			c2, _ := resumableDial(t, addr, "solo")
			if err := c2.WriteFrame(wire.MsgResume, 0, 0, &wire.Resume{Token: sess.Token(), RecvCount: sess.RecvCount()}); err != nil {
				t.Fatal(err)
			}
			typ, _, _, m, err := c2.ReadFrame()
			if err != nil {
				t.Fatalf("awaiting RESUME-ACK: %v", err)
			}
			rack, ok := m.(*wire.ResumeAck)
			if !ok {
				t.Fatalf("RESUME answered %s %+v, want RESUME-ACK", typ, m)
			}
			if rack.RecvCount != 0 {
				t.Fatalf("RESUME-ACK counts %d frames received, want 0: the ENROLL never arrived", rack.RecvCount)
			}
			if err := sess.Resume(c2, rack.RecvCount, nil); err != nil {
				t.Fatalf("replay: %v", err)
			}
			// The replayed ENROLL runs: assignment, then release.
			if typ, stream, _, _, err := c2.ReadFrame(); err != nil || typ != wire.MsgOfferAck || stream != 1 {
				t.Fatalf("after the replay: %s on stream %d (%v), want OFFER-ACK on stream 1", typ, stream, err)
			}
			if err := sess.WriteFrame(wire.MsgBodyDone, 1, 0, &wire.BodyDone{}); err != nil {
				t.Fatal(err)
			}
			typ, _, _, m, err = c2.ReadFrame()
			if cm, ok := m.(*wire.Complete); err != nil || !ok || cm.Err != nil {
				t.Fatalf("release: %s %+v (%v), want a clean COMPLETE", typ, m, err)
			}
		})
	}
}

// TestIdleParkedSessionExpires is the other half of parking on a token: a
// session parked with nothing to protect, that nobody resumes, costs the host
// one grace window and no more — after it the session is gone and its token
// refused.
func TestIdleParkedSessionExpires(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	const window = 100 * time.Millisecond
	h, addr := startHost(t, in, remote.HostConfig{ResumeWindow: window})
	expired := metrics.Get(metrics.SessionsExpired).Load()

	c1, ack := resumableDial(t, addr, "star_broadcast")
	if err := c1.WriteFrame(wire.MsgHeartbeat, 0, 0, &wire.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the host to open the session", func() bool { return h.Stats().Sessions == 1 })
	cut := time.Now()
	c1.Close()
	waitCond(t, "the parked session to expire", func() bool { return h.Stats().Sessions == 0 })
	if d := time.Since(cut); d < window {
		t.Fatalf("the session was gone %v after the cut, inside its %v window: it was torn down, not parked", d, window)
	}
	if got := metrics.Get(metrics.SessionsExpired).Load() - expired; got != 1 {
		t.Fatalf("%d sessions expired, want 1", got)
	}

	c2, _ := resumableDial(t, addr, "star_broadcast")
	if err := c2.WriteFrame(wire.MsgResume, 0, 0, &wire.Resume{Token: ack.ResumeToken}); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, m, err := c2.ReadFrame(); err != nil || typ != wire.MsgError {
		t.Fatalf("RESUME of an expired session answered %s %+v (%v), want ERROR", typ, m, err)
	}
}

// holdFirstFrame is a host-side fault that holds the read loop on the first
// stream frame it is consulted for — after the frame was read, before it is
// counted — until released. The other fault classes are quiet.
type holdFirstFrame struct {
	cutFaults
	once          sync.Once
	held, release chan struct{}
}

func (f *holdFirstFrame) DropConn() bool {
	f.once.Do(func() {
		close(f.held)
		<-f.release
	})
	return false
}

// TestResumeSupersedesReaderHoldingFrame pins the receipt count a RESUME-ACK
// carries against the reader it retires. The client can notice a break before
// the host does and RESUME while the old connection's reader still holds a
// frame it has read and not yet counted. The count used to be sampled with
// no regard for that reader: the ack said "not received", the client replayed
// the frame, and the old reader then counted and handled its copy as well — an
// ENROLL twice is "ENROLL reuses live stream", which tears the session down
// (an op twice is served twice). Count and supersession now share a lock: a
// frame the retired reader had not counted by then is dropped by it, and the
// replay is the only copy.
func TestResumeSupersedesReaderHoldingFrame(t *testing.T) {
	nop := func(core.Ctx) error { return nil }
	in := core.NewInstance(core.NewScript("solo").Role("p", nop).MustBuild())
	defer in.Close()
	hold := &holdFirstFrame{held: make(chan struct{}), release: make(chan struct{})}
	_, addr := startHost(t, in, remote.HostConfig{ResumeWindow: time.Minute, Faults: hold})

	c1, ack := resumableDial(t, addr, "solo")
	sess := wire.NewSession(c1, ack.ResumeToken, 0)
	if err := sess.WriteFrame(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "P", Role: "p"}); err != nil {
		t.Fatal(err)
	}
	<-hold.held // the host's reader has the ENROLL in hand, uncounted

	sess.Detach()
	c2, _ := resumableDial(t, addr, "solo")
	if err := c2.WriteFrame(wire.MsgResume, 0, 0, &wire.Resume{Token: sess.Token(), RecvCount: sess.RecvCount()}); err != nil {
		t.Fatal(err)
	}
	typ, _, _, m, err := c2.ReadFrame()
	rack, ok := m.(*wire.ResumeAck)
	if err != nil || !ok {
		t.Fatalf("RESUME answered %s %+v (%v), want RESUME-ACK", typ, m, err)
	}
	if err := sess.Resume(c2, rack.RecvCount, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	close(hold.release) // the retired reader gets to its frame

	// One ENROLL ran, whichever copy: one assignment, a clean release, and
	// no protocol error in between.
	if typ, stream, _, m, err := c2.ReadFrame(); err != nil || typ != wire.MsgOfferAck || stream != 1 {
		t.Fatalf("read %s %+v on stream %d (%v), want OFFER-ACK on stream 1", typ, m, stream, err)
	}
	if err := sess.WriteFrame(wire.MsgBodyDone, 1, 0, &wire.BodyDone{}); err != nil {
		t.Fatal(err)
	}
	typ, _, _, m, err = c2.ReadFrame()
	if cm, ok := m.(*wire.Complete); err != nil || !ok || cm.Err != nil {
		t.Fatalf("release: %s %+v (%v), want a clean COMPLETE", typ, m, err)
	}
	c1.Close()
}
