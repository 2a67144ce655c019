package remote_test

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
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/wire"
)

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func enrollRecipient(ctx context.Context, e *remote.Enroller, pid string) error {
	_, err := e.Enroll(ctx, core.Enrollment{
		PID:  ids.PID(pid),
		Role: ids.Member(patterns.RoleRecipient, 1),
		Body: recipientBody(1),
	})
	return err
}

// deadAddr returns a loopback address that nothing is listening on.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestRetryableClassification pins the per-error-class retry policy:
// pre-assignment rejections (dial, overload, drain, open circuit) are
// retryable, anything after work may have happened is not.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"dial failed", fmt.Errorf("%w: 127.0.0.1:1: refused", remote.ErrDialFailed), true},
		{"overloaded sentinel", fmt.Errorf("%w: busy", core.ErrOverloaded), true},
		{"overload detail", &core.OverloadError{Script: "s", RetryAfter: time.Second, Reason: "cap"}, true},
		{"draining", core.ErrDraining, true},
		{"circuit open", fmt.Errorf("%w: all hosts", remote.ErrCircuitOpen), true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"aborted", &core.AbortError{Script: "s", Performance: 1, Culprit: ids.Role("x"), Reason: "gone"}, false},
		{"role error", &core.RoleError{Script: "s", Role: ids.Role("x"), Err: errors.New("boom")}, false},
		{"conn lost", fmt.Errorf("%w: EOF", remote.ErrConnLost), false},
		{"closed", core.ErrClosed, false},
		{"unknown role", fmt.Errorf("%w: ghost", core.ErrUnknownRole), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := remote.Retryable(tc.err); got != tc.want {
				t.Fatalf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// TestEnrollmentCapShedsAndRetriesComplete is the overload acceptance
// check, made deterministic: a host with an enrollment cap of N is offered
// 4N enrollments. The first N are admitted and stay pending; the next 3N
// are shed with ErrOverloaded (visible through errors.Is across the wire,
// carrying the host's RetryAfter hint). No admitted work is aborted, and
// once the shed clients come back with a retry policy every one of the 4N
// completes.
func TestEnrollmentCapShedsAndRetriesComplete(t *testing.T) {
	const capN = 2
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{
		MaxEnrollments: capN,
		RetryAfter:     80 * time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		Breaker: remote.BreakerConfig{FailureThreshold: -1}, // sheds must stay ErrOverloaded
	})
	defer enr.Close()

	// Fill the cap: N recipient offers, pending until a sender appears.
	pendingErr := make(chan error, capN)
	for i := 0; i < capN; i++ {
		go func(i int) {
			pendingErr <- enrollRecipient(ctx, enr, fmt.Sprintf("pending-%d", i))
		}(i)
	}
	waitCond(t, "cap-filling offers to go pending", func() bool { return in.PendingOffers() == capN })

	// The remaining 3N offers are shed, deterministically: the cap is full
	// and nothing is moving.
	for i := 0; i < 3*capN; i++ {
		err := enrollRecipient(ctx, enr, fmt.Sprintf("shed-%d", i))
		if !errors.Is(err, core.ErrOverloaded) {
			t.Fatalf("offer %d over cap: err = %v, want ErrOverloaded", i, err)
		}
		var oe *core.OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("offer %d over cap: %v is not *core.OverloadError", i, err)
		}
		if oe.RetryAfter != 80*time.Millisecond {
			t.Fatalf("RetryAfter hint = %v, want 80ms", oe.RetryAfter)
		}
		if oe.Script != "star_broadcast" {
			t.Fatalf("overload script = %q", oe.Script)
		}
	}
	if got := h.Stats().ShedEnrollments; got != 3*capN {
		t.Fatalf("ShedEnrollments = %d, want %d", got, 3*capN)
	}

	// The admitted offers were never aborted by the shedding: senders
	// arrive and they complete normally.
	for i := 0; i < capN; i++ {
		if err := patterns.EnrollSender(ctx, in, "sender", "payload"); err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	for i := 0; i < capN; i++ {
		if err := <-pendingErr; err != nil {
			t.Fatalf("admitted enrollment failed: %v", err)
		}
	}

	// The shed clients retry under the policy and all complete as capacity
	// frees up.
	retrier := remote.NewEnrollerMulti([]string{addr}, remote.EnrollerConfig{
		Retry: remote.RetryPolicy{
			MaxAttempts: 500,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			Seed:        7,
		},
		Breaker: remote.BreakerConfig{FailureThreshold: -1},
	})
	defer retrier.Close()
	var wg sync.WaitGroup
	retryErr := make(chan error, 3*capN)
	for i := 0; i < 3*capN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			retryErr <- enrollRecipient(ctx, retrier, fmt.Sprintf("retry-%d", i))
		}(i)
	}
	for i := 0; i < 3*capN; i++ {
		if err := patterns.EnrollSender(ctx, in, "sender", "payload"); err != nil {
			t.Fatalf("retry-phase sender %d: %v", i, err)
		}
	}
	wg.Wait()
	for i := 0; i < 3*capN; i++ {
		if err := <-retryErr; err != nil {
			t.Fatalf("retrying client failed for good: %v", err)
		}
	}
}

// TestConnectionCapShedsHandshake checks the cheapest shedding path: a
// connection over MaxConns is rejected at handshake time with OVERLOADED
// (no per-connection protocol state is built), the client surfaces it as
// ErrOverloaded with the host's hint, and capacity freeing up lets the
// next attempt in.
func TestConnectionCapShedsHandshake(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{
		MaxConns:   1,
		RetryAfter: 60 * time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Occupy the single connection slot with a pending offer.
	ctxA, cancelA := context.WithCancel(ctx)
	defer cancelA()
	enrA := remote.NewEnroller(addr, remote.EnrollerConfig{})
	defer enrA.Close()
	pend := make(chan error, 1)
	go func() { pend <- enrollRecipient(ctxA, enrA, "occupant") }()
	waitCond(t, "occupant offer to go pending", func() bool { return in.PendingOffers() == 1 })

	enrB := remote.NewEnroller(addr, remote.EnrollerConfig{})
	defer enrB.Close()
	err := enrollRecipient(ctx, enrB, "over-cap")
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("over-cap dial err = %v, want ErrOverloaded", err)
	}
	var oe *core.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != 60*time.Millisecond {
		t.Fatalf("over-cap rejection lost its hint: %v", err)
	}
	if got := h.Stats().ShedConns; got != 1 {
		t.Fatalf("ShedConns = %d, want 1", got)
	}

	// Withdrawing the occupant frees the slot; the shed client's retry gets
	// through and completes.
	cancelA()
	if err := <-pend; !errors.Is(err, context.Canceled) {
		t.Fatalf("withdrawn occupant err = %v, want context.Canceled", err)
	}
	waitCond(t, "the occupied connection to close", func() bool { return h.Stats().Conns == 0 })

	done := make(chan error, 1)
	go func() { done <- enrollRecipient(ctx, enrB, "over-cap") }()
	waitCond(t, "retried offer to go pending", func() bool { return in.PendingOffers() == 1 })
	if err := patterns.EnrollSender(ctx, in, "sender", "x"); err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("retry after capacity freed: %v", err)
	}
}

// TestDrainShedsUnadmittedEnrollImmediately is the drain regression test:
// an ENROLL that lands on an existing connection while the host drains
// must be answered with DRAIN at once — not sit queued against a target
// that is busy draining until the heartbeat timeout reaps it.
func TestDrainShedsUnadmittedEnrollImmediately(t *testing.T) {
	forEachProto(t, testDrainShedsUnadmittedEnrollImmediately)
}

func testDrainShedsUnadmittedEnrollImmediately(t *testing.T, proto int) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{HeartbeatTimeout: 10 * time.Second})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Pool an idle connection for the mid-drain probe.
	prober := remote.NewEnroller(addr, remote.EnrollerConfig{MaxProtocolVersion: proto})
	defer prober.Close()
	warm := make(chan error, 1)
	go func() { warm <- enrollRecipient(ctx, prober, "warmup") }()
	waitCond(t, "warmup offer to go pending", func() bool { return in.PendingOffers() == 1 })
	if err := patterns.EnrollSender(ctx, in, "sender", "x"); err != nil {
		t.Fatalf("warmup sender: %v", err)
	}
	if err := <-warm; err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// Start an in-flight performance that holds the drain open.
	started := make(chan struct{})
	release := make(chan struct{})
	blocker := remote.NewEnroller(addr, remote.EnrollerConfig{MaxProtocolVersion: proto})
	defer blocker.Close()
	blocked := make(chan error, 1)
	go func() {
		_, err := blocker.Enroll(ctx, core.Enrollment{
			PID:  "blocker",
			Role: ids.Member(patterns.RoleRecipient, 1),
			Body: func(rc core.Ctx) error {
				v, err := rc.Recv(ids.Role(patterns.RoleSender))
				if err != nil {
					return err
				}
				close(started)
				<-release
				rc.SetResult(0, v)
				return nil
			},
		})
		blocked <- err
	}()
	senderDone := make(chan error, 1)
	go func() { senderDone <- patterns.EnrollSender(ctx, in, "sender", "held") }()
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- h.Drain(ctx) }()
	waitCond(t, "drain to take effect", func() bool { return h.Addr() == nil })

	// The probe rides the pooled connection; it must come back ErrDraining
	// promptly, far inside the heartbeat timeout.
	t0 := time.Now()
	err := enrollRecipient(ctx, prober, "mid-drain")
	if !errors.Is(err, core.ErrDraining) {
		t.Fatalf("mid-drain offer err = %v, want ErrDraining", err)
	}
	if elapsed := time.Since(t0); elapsed > 3*time.Second {
		t.Fatalf("mid-drain rejection took %v — queued instead of shed", elapsed)
	}

	// The in-flight performance was not touched: it completes, and so does
	// the drain.
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("in-flight performance aborted by drain: %v", err)
	}
	if err := <-senderDone; err != nil {
		t.Fatalf("in-flight sender: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestBreakerOpensOnDeadHost checks that repeated dial failures open the
// circuit and later offers fail fast with ErrCircuitOpen instead of
// re-dialing.
func TestBreakerOpensOnDeadHost(t *testing.T) {
	addr := deadAddr(t)
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		DialTimeout: time.Second,
		Breaker:     remote.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		err := enrollRecipient(ctx, enr, fmt.Sprintf("p%d", i))
		if !errors.Is(err, remote.ErrDialFailed) {
			t.Fatalf("attempt %d err = %v, want ErrDialFailed", i, err)
		}
		if !remote.Retryable(err) {
			t.Fatalf("dial failure classified unretryable: %v", err)
		}
	}
	if hosts := enr.Hosts(); hosts[0].State != remote.BreakerOpen {
		t.Fatalf("breaker after %d dial failures = %v, want open", 3, hosts[0].State)
	}
	err := enrollRecipient(ctx, enr, "fast-fail")
	if !errors.Is(err, remote.ErrCircuitOpen) {
		t.Fatalf("offer against open circuit err = %v, want ErrCircuitOpen", err)
	}
	if !remote.Retryable(err) {
		t.Fatal("ErrCircuitOpen classified unretryable")
	}
}

// TestFailoverToSecondaryHost checks multi-host rotation: the primary's
// circuit opens on a dial failure and the retry lands on the healthy
// secondary.
func TestFailoverToSecondaryHost(t *testing.T) {
	dead := deadAddr(t)
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, live := startHost(t, in, remote.HostConfig{})

	enr := remote.NewEnrollerMulti([]string{dead, live}, remote.EnrollerConfig{
		DialTimeout: 2 * time.Second,
		Retry:       remote.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 3},
		Breaker:     remote.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	senderDone := make(chan error, 1)
	go func() { senderDone <- patterns.EnrollSender(ctx, in, "sender", "via-secondary") }()

	if err := enrollRecipient(ctx, enr, "failover"); err != nil {
		t.Fatalf("failover enrollment: %v", err)
	}
	if err := <-senderDone; err != nil {
		t.Fatalf("sender: %v", err)
	}
	hosts := enr.Hosts()
	if hosts[0].State != remote.BreakerOpen {
		t.Fatalf("primary breaker = %v, want open", hosts[0].State)
	}
	if hosts[1].State != remote.BreakerClosed {
		t.Fatalf("secondary breaker = %v, want closed", hosts[1].State)
	}
}

// TestHalfOpenProbeRestoresHost walks the recovery arc against a real
// address: circuit opens on a dead host, fails fast during the cooldown, a
// failed probe re-opens it, and once the host is back a successful probe
// closes the circuit and service resumes.
func TestHalfOpenProbeRestoresHost(t *testing.T) {
	addr := deadAddr(t)
	const cooldown = 150 * time.Millisecond
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		DialTimeout: time.Second,
		Breaker:     remote.BreakerConfig{FailureThreshold: 1, Cooldown: cooldown},
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := enrollRecipient(ctx, enr, "first"); !errors.Is(err, remote.ErrDialFailed) {
		t.Fatalf("first offer err = %v, want ErrDialFailed", err)
	}
	if st := enr.Hosts()[0].State; st != remote.BreakerOpen {
		t.Fatalf("breaker after failure = %v, want open", st)
	}
	if err := enrollRecipient(ctx, enr, "cooling"); !errors.Is(err, remote.ErrCircuitOpen) {
		t.Fatalf("offer inside cooldown err = %v, want ErrCircuitOpen", err)
	}

	// Cooldown elapses with the host still down: the probe runs, fails, and
	// re-opens the circuit.
	time.Sleep(cooldown + 20*time.Millisecond)
	if err := enrollRecipient(ctx, enr, "probe-fail"); !errors.Is(err, remote.ErrDialFailed) {
		t.Fatalf("failed probe err = %v, want ErrDialFailed", err)
	}
	if st := enr.Hosts()[0].State; st != remote.BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open", st)
	}
	if err := enrollRecipient(ctx, enr, "cooling-again"); !errors.Is(err, remote.ErrCircuitOpen) {
		t.Fatalf("offer inside second cooldown err = %v, want ErrCircuitOpen", err)
	}

	// The host comes back on the same address; after the cooldown the probe
	// succeeds and closes the circuit.
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h := remote.NewHost(in, remote.HostConfig{})
	if err := h.Listen(addr); err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	t.Cleanup(func() {
		h.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	time.Sleep(cooldown + 20*time.Millisecond)

	senderDone := make(chan error, 1)
	go func() { senderDone <- patterns.EnrollSender(ctx, in, "sender", "back") }()
	if err := enrollRecipient(ctx, enr, "probe-ok"); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if err := <-senderDone; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if st := enr.Hosts()[0].State; st != remote.BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", st)
	}
}

// TestHeartbeatPumpStopsOnHostClose is the goroutine-leak regression test
// for the client heartbeat pump: with a pooled idle connection and an
// hour-long heartbeat interval, the host closing the connection must stop
// the pump (and the connection's reader) promptly. The old pump only exited
// when a *write* failed — with nothing prompting a write for an hour, it
// leaked.
func TestHeartbeatPumpStopsOnHostClose(t *testing.T) {
	forEachProto(t, testHeartbeatPumpStopsOnHostClose)
}

func testHeartbeatPumpStopsOnHostClose(t *testing.T, proto int) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})

	base := runtime.NumGoroutine()

	enr := remote.NewEnroller(addr, remote.EnrollerConfig{HeartbeatInterval: time.Hour, MaxProtocolVersion: proto})
	defer enr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One full performance leaves the connection idle in the pool, its
	// heartbeat pump and reader running.
	done := make(chan error, 1)
	go func() { done <- enrollRecipient(ctx, enr, "leakcheck") }()
	waitCond(t, "offer to go pending", func() bool { return in.PendingOffers() == 1 })
	if err := patterns.EnrollSender(ctx, in, "sender", "x"); err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("enrollment: %v", err)
	}

	h.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after host close: %d, baseline %d", runtime.NumGoroutine(), base)
}

// shedOnce injects exactly one overload shed, to pin down retry behaviour.
type shedOnce struct{ fired atomic.Bool }

func (s *shedOnce) FrameDelay() time.Duration     { return 0 }
func (s *shedOnce) DropConn() bool                { return false }
func (s *shedOnce) StallHeartbeat() time.Duration { return 0 }
func (s *shedOnce) CutConn() bool                 { return false }
func (s *shedOnce) Overload() bool                { return s.fired.CompareAndSwap(false, true) }

// TestRetryHonorsRetryAfterHint checks that the client's backoff before a
// retry is floored at the host's RetryAfter hint, even when the jitter
// window is far smaller.
func TestRetryHonorsRetryAfterHint(t *testing.T) {
	const hint = 250 * time.Millisecond
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{
		RetryAfter: hint,
		Faults:     &shedOnce{},
	})

	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		Retry: remote.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1},
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	senderDone := make(chan error, 1)
	go func() { senderDone <- patterns.EnrollSender(ctx, in, "sender", "hinted") }()

	t0 := time.Now()
	if err := enrollRecipient(ctx, enr, "hinted"); err != nil {
		t.Fatalf("enrollment with one injected shed: %v", err)
	}
	if elapsed := time.Since(t0); elapsed < hint {
		t.Fatalf("retry fired after %v, before the %v RetryAfter hint", elapsed, hint)
	}
	if err := <-senderDone; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if got := h.Stats().ShedEnrollments; got != 1 {
		t.Fatalf("ShedEnrollments = %d, want 1", got)
	}
}

// TestSilentHostBoundsEnroll pins the dial bound on a host that accepts
// the TCP connection and then never answers the HELLO: DialTimeout (and
// the enrollment's context) cover the handshake as well as the connect,
// and since the dial holds the per-host dial lock, a second enrollment to
// the same host must not be stuck behind the first either.
func TestSilentHostBoundsEnroll(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn // accepted and left silent until the test ends
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, nc)
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range held {
			nc.Close()
		}
	}()

	enr := remote.NewEnroller(ln.Addr().String(), remote.EnrollerConfig{DialTimeout: 200 * time.Millisecond})
	defer enr.Close()
	errs := make(chan error, 2) // one per enrollment
	for i := 0; i < 2; i++ {
		pid := fmt.Sprintf("p%d", i)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			errs <- enrollRecipient(ctx, enr, pid)
		}()
	}
	timeout := time.After(3 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, remote.ErrDialFailed) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("enrollment against a silent host = %v, want ErrDialFailed or the context's error", err)
			}
		case <-timeout:
			t.Fatalf("%d of 2 enrollments still blocked 3s into a 200ms dial bound and a 500ms context", 2-i)
		}
	}
}

// TestLostBeforeOfferAckIsRetried pins the client half of the drain race: a
// host that takes the ENROLL and closes the connection without an OFFER-ACK
// (it was shutting down) leaves the client knowing its body never ran, so
// the loss is retryable although it still reads as ErrConnLost. The front
// listener handshakes, reads one ENROLL and hangs up, once; every later
// connection is relayed to a real host.
func TestLostBeforeOfferAckIsRetried(t *testing.T) {
	def := core.NewScript("solo").
		Role("only", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		MustBuild()
	in := core.NewInstance(def)
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})

	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var swallowed atomic.Int32 // ENROLL frames the front read and dropped
	var relays sync.WaitGroup
	defer func() { front.Close(); relays.Wait() }()
	relays.Add(1)
	go func() {
		defer relays.Done()
		for first := true; ; first = false {
			nc, err := front.Accept()
			if err != nil {
				return // the test closed the listener
			}
			if first {
				c := wire.NewConn(nc)
				c.SetReadTimeout(10 * time.Second)
				if _, err := wire.ServerHandshakeV(c, def.Name(), wire.MaxVersion, nil); err != nil {
					t.Errorf("front handshake: %v", err)
				}
				for {
					typ, _, _, _, err := c.ReadFrame()
					if err != nil {
						t.Errorf("front: no ENROLL before %v", err)
						break
					}
					if typ == wire.MsgEnroll {
						swallowed.Add(1)
						break
					}
				}
				c.Close()
				continue
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("front: dial host: %v", err)
				nc.Close()
				continue
			}
			relays.Add(2)
			go func() { defer relays.Done(); _, _ = io.Copy(up, nc); up.Close() }()
			go func() { defer relays.Done(); _, _ = io.Copy(nc, up); nc.Close() }()
		}
	}()

	enr := remote.NewEnroller(front.Addr().String(), remote.EnrollerConfig{
		Retry: remote.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, Seed: 1},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var ran atomic.Int32
	_, err = enr.Enroll(ctx, core.Enrollment{
		PID: "P", Role: ids.Role("only"),
		Body: func(rc core.Ctx) error { ran.Add(1); return nil },
	})
	enr.Close() // before the deferred waits: the relays end when their connections do
	if err != nil {
		t.Fatalf("Enroll with two attempts = %v, want success on the second", err)
	}
	if got := swallowed.Load(); got != 1 {
		t.Fatalf("front swallowed %d ENROLLs, want 1 (the first attempt never reached it?)", got)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("body ran %d times, want exactly once", got)
	}
}
