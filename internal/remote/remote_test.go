package remote_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/wire"
)

func startHost(t *testing.T, target remote.Target, cfg remote.HostConfig) (*remote.Host, string) {
	t.Helper()
	h := remote.NewHost(target, cfg)
	if err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	t.Cleanup(func() {
		h.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return h, h.Addr().String()
}

// forEachProto runs a behaviour test once per wire protocol an enroller can
// end up speaking — proto 0 is the default (v2, multiplexed), proto 1 pins
// EnrollerConfig.MaxProtocolVersion to the v1 lock-step wire. Both ride the
// same conversation state machine, so the assertions are the same.
func forEachProto(t *testing.T, fn func(t *testing.T, proto int)) {
	t.Run("default", func(t *testing.T) { fn(t, 0) })
	t.Run("v1", func(t *testing.T) { fn(t, 1) })
}

func recipientBody(i int) core.RoleBody {
	return func(rc core.Ctx) error {
		v, err := rc.Recv(ids.Role(patterns.RoleSender))
		if err != nil {
			return err
		}
		rc.SetResult(0, v)
		_ = i
		return nil
	}
}

func senderBody(n int) core.RoleBody {
	return func(rc core.Ctx) error {
		tos := make([]ids.RoleRef, n)
		for i := 1; i <= n; i++ {
			tos[i-1] = ids.Member(patterns.RoleRecipient, i)
		}
		return rc.SendAll(tos, rc.Arg(0))
	}
}

// TestRemoteStarBroadcast is the quickstart run with every participant in a
// (logically) separate process: one announcer and three listeners enroll
// over loopback TCP for two performances, and each performance delivers one
// value to all listeners.
func TestRemoteStarBroadcast(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(3))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})

	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var mu sync.Mutex
	got := map[int][]any{} // performance -> received values
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 1; round <= 2; round++ {
				res, err := enr.Enroll(ctx, core.Enrollment{
					PID:  ids.PID(fmt.Sprintf("listener-%d", i)),
					Role: ids.Member(patterns.RoleRecipient, i),
					Body: recipientBody(i),
				})
				if err != nil {
					t.Errorf("listener-%d round %d: %v", i, round, err)
					return
				}
				if len(res.Values) != 1 {
					t.Errorf("listener-%d round %d: values = %v", i, round, res.Values)
					return
				}
				mu.Lock()
				got[res.Performance] = append(got[res.Performance], res.Values[0])
				mu.Unlock()
			}
		}(i)
	}
	for _, msg := range []string{"hello", "world"} {
		res, err := enr.Enroll(ctx, core.Enrollment{
			PID:  "announcer",
			Role: ids.Role(patterns.RoleSender),
			Args: []any{msg},
			Body: senderBody(3),
		})
		if err != nil {
			t.Fatalf("announcer %q: %v", msg, err)
		}
		if res.Role != ids.Role(patterns.RoleSender) {
			t.Fatalf("announcer result role = %v", res.Role)
		}
	}
	wg.Wait()

	if len(got) != 2 {
		t.Fatalf("performances seen = %v, want 2", got)
	}
	for perf, vals := range got {
		if len(vals) != 3 {
			t.Fatalf("performance %d delivered %d values, want 3", perf, len(vals))
		}
		for _, v := range vals[1:] {
			if v != vals[0] {
				t.Fatalf("performance %d mixed values: %v", perf, vals)
			}
		}
	}
}

// TestRemoteSelectAndQueries drives the rest of the Ctx surface over the
// wire: tagged sends, guarded Select with original-index mapping, RecvAny,
// and the Terminated/Filled/FamilySize predicates.
func TestRemoteSelectAndQueries(t *testing.T) { forEachProto(t, testRemoteSelectAndQueries) }

func testRemoteSelectAndQueries(t *testing.T, proto int) {
	def := core.NewScript("pair").
		Role("a", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Role("b", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
	in := core.NewInstance(def)
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{MaxProtocolVersion: proto})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	errCh := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID:  "A",
			Role: ids.Role("a"),
			Body: func(rc core.Ctx) error {
				if err := rc.SendTag(ids.Role("b"), "ping", 7.0); err != nil {
					return fmt.Errorf("ping: %w", err)
				}
				if err := rc.SendTag(ids.Role("b"), "extra", "anon"); err != nil {
					return fmt.Errorf("extra: %w", err)
				}
				v, err := rc.RecvTag(ids.Role("b"), "pong")
				if err != nil {
					return fmt.Errorf("pong: %w", err)
				}
				if v != 8.0 {
					return fmt.Errorf("pong value = %v", v)
				}
				return nil
			},
		})
		errCh <- err
	}()

	res, err := enr.Enroll(ctx, core.Enrollment{
		PID:  "B",
		Role: ids.Role("b"),
		Body: func(rc core.Ctx) error {
			if !rc.Filled(ids.Role("a")) {
				return errors.New("Filled(a) = false")
			}
			if rc.Terminated(ids.Role("a")) {
				return errors.New("Terminated(a) = true before a finished")
			}
			if rc.FamilySize("nosuch") != 0 {
				return errors.New("FamilySize(nosuch) != 0")
			}
			// The disabled branch keeps its original index: the committed
			// ping branch must report index 1.
			sel, err := rc.Select(
				core.RecvTagFrom(ids.Role("a"), "never").When(false),
				core.RecvTagFrom(ids.Role("a"), "ping"),
			)
			if err != nil {
				return fmt.Errorf("select: %w", err)
			}
			if sel.Index != 1 || sel.Val != 7.0 || sel.Peer != ids.Role("a") {
				return fmt.Errorf("select outcome = %+v", sel)
			}
			// All guards false resolves locally.
			if _, err := rc.Select(core.RecvFrom(ids.Role("a")).When(false)); !errors.Is(err, core.ErrNoBranches) {
				return fmt.Errorf("all-false select err = %v", err)
			}
			from, tag, v, err := rc.RecvAny()
			if err != nil {
				return fmt.Errorf("recvany: %w", err)
			}
			if from != ids.Role("a") || tag != "extra" || v != "anon" {
				return fmt.Errorf("recvany outcome = %v %q %v", from, tag, v)
			}
			if err := rc.SendTag(ids.Role("a"), "pong", 8.0); err != nil {
				return fmt.Errorf("send pong: %w", err)
			}
			rc.SetResult(0, "done")
			return nil
		},
	})
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	if len(res.Values) != 1 || res.Values[0] != "done" {
		t.Fatalf("b values = %v", res.Values)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("a: %v", err)
	}
}

// rawEnroll drives the wire protocol by hand up to OFFER-ACK, so tests can
// then misbehave (vanish, fall silent) in controlled ways. It speaks as a
// pre-v2 client does: its HELLO carries no max_version, so the host must
// ack v1 and serve the connection lock-step.
func rawEnroll(t *testing.T, addr, script, pid, role string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := wire.NewConn(nc)
	c.SetReadTimeout(10 * time.Second)
	if err := c.WriteSync(wire.MsgHello, &wire.Hello{Magic: wire.Magic, Version: 1, Script: script}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, _, _, m, err := c.ReadFrame(); err != nil {
		t.Fatalf("handshake: %v", err)
	} else if ack, ok := m.(*wire.HelloAck); !ok || ack.Version != 1 || ack.ResumeToken != "" {
		t.Fatalf("pre-v2 HELLO answered with %+v, want a bare v1 HELLO-ACK", m)
	}
	if err := c.WriteFrame(wire.MsgEnroll, 0, 0, &wire.Enroll{PID: pid, Role: role}); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	typ, _, _, _, err := c.ReadFrame()
	if err != nil || typ != wire.MsgOfferAck {
		t.Fatalf("await offer: %v %v", typ, err)
	}
	return c
}

// TestRemoteDisconnectAborts pins the acceptance scenario: killing an
// enroller's connection mid-performance aborts only that performance —
// the blocked co-performer unwinds with an *AbortError naming the vanished
// role as culprit — and the instance accepts the next cast.
func TestRemoteDisconnectAborts(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(2))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{HeartbeatTimeout: 5 * time.Second})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Local co-performers first (their offers keep the cast pending), so
	// the raw enrollment below completes the cast and is assigned at once —
	// a raw connection sends no heartbeats, so it must not sit on a pending
	// offer. The sender will block in its fan-out because recipient[1]
	// never receives.
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

	// The doomed enroller joins recipient[1] over a raw connection.
	doomed := rawEnroll(t, addr, "star_broadcast", "ghost", "recipient[1]")

	time.Sleep(100 * time.Millisecond) // let the sender block in the fabric
	doomed.Close()

	err := <-sendErr
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("sender err = %v, want *AbortError", err)
	}
	if ae.Culprit != ids.Member(patterns.RoleRecipient, 1) {
		t.Fatalf("culprit = %v, want recipient[1]", ae.Culprit)
	}
	if !strings.Contains(ae.Reason, "disconnected") {
		t.Fatalf("reason = %q, want a disconnect reason", ae.Reason)
	}
	if err := <-recvErr; err != nil && !errors.Is(err, core.ErrPerformanceAborted) {
		t.Fatalf("recipient[2] err = %v", err)
	}

	// The abort is scoped: the next cast performs normally.
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := in.Enroll(ctx, core.Enrollment{
				PID: ids.PID(fmt.Sprintf("r%d", i)), Role: ids.Member(patterns.RoleRecipient, i),
			}); err != nil {
				t.Errorf("next cast recipient[%d]: %v", i, err)
			}
		}(i)
	}
	if _, err := in.Enroll(ctx, core.Enrollment{
		PID: "S2", Role: ids.Role(patterns.RoleSender), Args: []any{"y"},
	}); err != nil {
		t.Fatalf("next cast sender: %v", err)
	}
	wg.Wait()
}

// TestRemoteHeartbeatTimeout pins the silent-peer path: a connection that
// stops sending frames (no heartbeats, no operations) past the host's
// heartbeat timeout is treated as lost, and its performance is aborted.
func TestRemoteHeartbeatTimeout(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{HeartbeatTimeout: 200 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sendErr := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := in.Enroll(ctx, core.Enrollment{
			PID: "S", Role: ids.Role(patterns.RoleSender), Args: []any{"x"},
		})
		sendErr <- err
	}()
	silent := rawEnroll(t, addr, "star_broadcast", "mute", "recipient[1]")
	defer silent.Close() // never sends another frame

	err := <-sendErr
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("sender err = %v, want *AbortError", err)
	}
	if ae.Culprit != ids.Member(patterns.RoleRecipient, 1) {
		t.Fatalf("culprit = %v, want recipient[1]", ae.Culprit)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("abort took %v, heartbeat timeout not applied", d)
	}
}

// drainTarget stubs a target whose Offer always reports draining.
type drainTarget struct{ def core.Definition }

func (d drainTarget) Offer(context.Context, core.Enrollment, core.Handoff) (core.Offered, error) {
	return core.Offered{}, core.ErrDraining
}
func (d drainTarget) Drain(context.Context) error { return nil }
func (d drainTarget) Definition() core.Definition { return d.def }

// TestRemoteDrainRejection maps the DRAIN frame onto ErrDraining.
func TestRemoteDrainRejection(t *testing.T) {
	_, addr := startHost(t, drainTarget{patterns.StarBroadcast(1)}, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{})
	defer enr.Close()
	_, err := enr.Enroll(context.Background(), core.Enrollment{
		PID: "p", Role: ids.Role(patterns.RoleSender),
		Body: func(rc core.Ctx) error { return nil },
	})
	if !errors.Is(err, core.ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

// TestRemoteHostDrain checks the graceful path end to end: a drain started
// mid-performance lets the performance finish and delivers its COMPLETE
// frames before the network side comes down.
func TestRemoteHostDrain(t *testing.T) { forEachProto(t, testRemoteHostDrain) }

func testRemoteHostDrain(t *testing.T, proto int) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{MaxProtocolVersion: proto})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	started := make(chan struct{})
	release := make(chan struct{})
	recvRes := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "R", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: func(rc core.Ctx) error {
				close(started)
				<-release
				v, err := rc.Recv(ids.Role(patterns.RoleSender))
				if err != nil {
					return err
				}
				rc.SetResult(0, v)
				return nil
			},
		})
		recvRes <- err
	}()
	sendRes := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "S", Role: ids.Role(patterns.RoleSender), Args: []any{"x"},
			Body: senderBody(1),
		})
		sendRes <- err
	}()

	<-started
	drainDone := make(chan error, 1)
	go func() { drainDone <- h.Drain(ctx) }()
	time.Sleep(50 * time.Millisecond) // drain must now be waiting on the performance
	close(release)

	if err := <-recvRes; err != nil {
		t.Fatalf("recipient: %v", err)
	}
	if err := <-sendRes; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !in.Draining() && !in.Closed() {
		t.Fatal("instance not drained")
	}
}

// TestRemoteRoleError maps a failing client body onto *RoleError, exactly
// as a failing local body would be.
func TestRemoteRoleError(t *testing.T) { forEachProto(t, testRemoteRoleError) }

func testRemoteRoleError(t *testing.T, proto int) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{MaxProtocolVersion: proto})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sendRes := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "S", Role: ids.Role(patterns.RoleSender), Args: []any{"x"},
			Body: senderBody(1),
		})
		sendRes <- err
	}()
	_, err := enr.Enroll(ctx, core.Enrollment{
		PID: "R", Role: ids.Member(patterns.RoleRecipient, 1),
		Body: func(rc core.Ctx) error {
			if _, err := rc.Recv(ids.Role(patterns.RoleSender)); err != nil {
				return err
			}
			return errors.New("kaput")
		},
	})
	var re *core.RoleError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RoleError", err)
	}
	if re.Role != ids.Member(patterns.RoleRecipient, 1) || !strings.Contains(re.Error(), "kaput") {
		t.Fatalf("role error = %+v", re)
	}
	if err := <-sendRes; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// TestRemoteAbortWhileIdle pins the ABORT notification: when a performance
// deadline fires while the remote body idles between operations, its next
// operation fails with the abort instead of hanging.
func TestRemoteAbortWhileIdle(t *testing.T) { forEachProto(t, testRemoteAbortWhileIdle) }

func testRemoteAbortWhileIdle(t *testing.T, proto int) {
	def := core.NewScript("idletrio").
		Role("a", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Role("b", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Role("c", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
	in := core.NewInstance(def, core.WithPerformanceDeadline(200*time.Millisecond))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{HeartbeatInterval: 50 * time.Millisecond, MaxProtocolVersion: proto})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	aRes := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "A", Role: ids.Role("a"),
			Body: func(rc core.Ctx) error { return nil }, // finishes instantly
		})
		aRes <- err
	}()
	cRes := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "C", Role: ids.Role("c"),
			Body: func(rc core.Ctx) error {
				_, err := rc.Recv(ids.Role("b")) // blocks until the abort
				return err
			},
		})
		cRes <- err
	}()
	_, err := enr.Enroll(ctx, core.Enrollment{
		PID: "B", Role: ids.Role("b"),
		Body: func(rc core.Ctx) error {
			// Idle well past the performance deadline, then try to talk.
			// RecvAny reaches the (aborted) fabric directly, so it surfaces
			// the abort itself — targeted ops would report the peers
			// finished, as they would locally, since every other body has
			// unwound by now.
			time.Sleep(700 * time.Millisecond)
			_, _, _, err := rc.RecvAny()
			if !errors.Is(err, core.ErrPerformanceAborted) {
				return fmt.Errorf("op after abort = %v, want ErrPerformanceAborted", err)
			}
			return err
		},
	})
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("b err = %v, want *AbortError", err)
	}
	if ae.Culprit != ids.Role("b") {
		t.Fatalf("culprit = %v, want b (the only unfinished, non-waiting role)", ae.Culprit)
	}
	if err := <-aRes; err != nil && !errors.Is(err, core.ErrPerformanceAborted) {
		t.Fatalf("a err = %v", err)
	}
	if err := <-cRes; !errors.Is(err, core.ErrPerformanceAborted) {
		t.Fatalf("c err = %v, want the abort", err)
	}
}

// TestRemoteWithdrawPendingOffer checks ctx cancellation on a pending
// (unassigned) offer: the client returns the context error and the host
// withdraws the offer, leaving the instance clean for the next cast.
func TestRemoteWithdrawPendingOffer(t *testing.T) { forEachProto(t, testRemoteWithdrawPendingOffer) }

func testRemoteWithdrawPendingOffer(t *testing.T, proto int) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{MaxProtocolVersion: proto})
	defer enr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "R", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: recipientBody(1),
		})
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for in.PendingOffers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for in.PendingOffers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never withdrawn host-side")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNilPartnerSetParity: an enrollment whose partner constraint is a nil
// set — "anyone, or no one, in that role" — forms the same cast whether it
// is offered to the instance directly or through the wire, which drops nil
// sets. Role b stays unfilled both times; only a is critical.
func TestNilPartnerSetParity(t *testing.T) {
	nop := func(core.Ctx) error { return nil }
	in := core.NewInstance(core.NewScript("ab").Role("a", nop).Role("b", nop).
		CriticalSet(ids.Role("a")).MustBuild())
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "ab"})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e := core.Enrollment{
		PID: "A", Role: ids.Role("a"), Body: nop,
		With: map[ids.RoleRef]ids.PIDSet{ids.Role("b"): nil},
	}
	local, err := in.Enroll(ctx, e)
	if err != nil {
		t.Fatalf("local: a nil partner set blocked the cast: %v", err)
	}
	far, err := enr.Enroll(ctx, e)
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	if local.Performance != 1 || far.Performance != 2 {
		t.Fatalf("performances = %d, %d; want 1, 2", local.Performance, far.Performance)
	}
}

// TestRemoteScriptNameAssertion rejects a client that names a different
// script than the host serves.
func TestRemoteScriptNameAssertion(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "lock_manager"})
	defer enr.Close()
	_, err := enr.Enroll(context.Background(), core.Enrollment{
		PID: "p", Role: ids.Role(patterns.RoleSender),
		Body: func(rc core.Ctx) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "star_broadcast") {
		t.Fatalf("err = %v, want script-mismatch rejection", err)
	}
}

// TestInstanceCloseSendsNoAbortFrame pins what the bridge makes of
// PerformanceDone firing because the instance closed under a running
// performance: there is no *AbortError to report, so no ABORT frame goes
// out — the client learns of the closure from its next operation and from
// COMPLETE, as it always has. The raw client keeps the bridge's loop turning
// with queries after Close, so the loop does get to see the closed channel.
func TestInstanceCloseSendsNoAbortFrame(t *testing.T) {
	def := core.NewScript("closing").
		Role("remote", func(core.Ctx) error { return errors.New("local body must not run") }).
		Role("local", func(rc core.Ctx) error {
			_, _, _, err := rc.RecvAny() // until the fabric closes
			return err
		}).
		MustBuild()
	in := core.NewInstance(def)
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{HeartbeatTimeout: 10 * time.Second})

	localErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), core.Enrollment{PID: "L", Role: ids.Role("local")})
		localErr <- err
	}()
	c := rawEnroll(t, addr, "closing", "R", "remote") // returns on OFFER-ACK: the cast is running
	defer c.Close()

	in.Close()
	if err := <-localErr; !errors.Is(err, core.ErrClosed) {
		t.Fatalf("local role returned %v, want ErrClosed", err)
	}
	// await reads to the next frame of type want; an ABORT on the way fails.
	await := func(want wire.MsgType) {
		t.Helper()
		for {
			typ, _, _, _, err := c.ReadFrame()
			if err != nil {
				t.Fatalf("reading for %v: %v", want, err)
			}
			if typ == wire.MsgAbort {
				t.Fatal("the bridge reported an abort for a performance nobody aborted")
			}
			if typ == want {
				return
			}
		}
	}
	for range 16 { // v1: lock-step, no sequence numbers
		if err := c.WriteFrame(wire.MsgQuery, 0, 0, &wire.Query{Kind: wire.QueryFilled, Role: "local"}); err != nil {
			t.Fatalf("query: %v", err)
		}
		await(wire.MsgOpResult)
	}
	if err := c.WriteFrame(wire.MsgBodyDone, 0, 0, &wire.BodyDone{}); err != nil {
		t.Fatalf("body done: %v", err)
	}
	await(wire.MsgComplete)
}
