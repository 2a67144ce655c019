package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
)

// wedgeDef is a two-role script in which "wedge" enrolls and then blocks on
// an external channel without ever communicating, while "co" blocks in the
// fabric waiting for a message from wedge — the paper's open problem of a
// partner that never communicates. release unblocks the wedged body.
func wedgeDef(t *testing.T, release <-chan struct{}) Definition {
	t.Helper()
	def, err := NewScript("wedged").
		Role("co", func(rc Ctx) error {
			_, err := rc.Recv(ids.Role("wedge"))
			return err
		}).
		Role("wedge", func(rc Ctx) error {
			<-release
			return nil
		}).
		Initiation(DelayedInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// TestPerformanceDeadlineAbortsWedgedPerformance: the tentpole's acceptance
// scenario. A role enrolls and never communicates; with an instance-level
// performance deadline, the runtime aborts only that performance, the
// blocked co-performer unwinds with an *AbortError naming the culprit, and
// the instance accepts the next cast.
func TestPerformanceDeadlineAbortsWedgedPerformance(t *testing.T) {
	ctx := testCtx(t)
	release := make(chan struct{})
	def := wedgeDef(t, release)
	in := NewInstance(def, WithPerformanceDeadline(50*time.Millisecond))
	defer in.Close()

	chCo := enrollAsync(ctx, in, Enrollment{PID: "C", Role: ids.Role("co")})
	chWedge := enrollAsync(ctx, in, Enrollment{PID: "W", Role: ids.Role("wedge")})

	out := <-chCo
	var ae *AbortError
	if !errors.As(out.err, &ae) {
		t.Fatalf("co err = %v, want *AbortError", out.err)
	}
	if !errors.Is(out.err, ErrPerformanceAborted) {
		t.Fatalf("co err = %v, must wrap ErrPerformanceAborted", out.err)
	}
	if ae.Culprit != ids.Role("wedge") {
		t.Fatalf("culprit = %v, want wedge (the role that never communicated)", ae.Culprit)
	}
	if ae.Performance != 1 {
		t.Fatalf("aborted performance = %d, want 1", ae.Performance)
	}

	// The instance must accept the next cast: a fresh pair enrolls, forms
	// performance 2, and that one too is reclaimed by the deadline — proving
	// the abort freed the instance rather than wedging it. (The wedge bodies
	// block on the shared release channel; freeing it lets both unwind.)
	ch2Co := enrollAsync(ctx, in, Enrollment{PID: "C2", Role: ids.Role("co")})
	ch2Wedge := enrollAsync(ctx, in, Enrollment{PID: "W2", Role: ids.Role("wedge")})
	out2 := <-ch2Co
	var ae2 *AbortError
	if !errors.As(out2.err, &ae2) {
		t.Fatalf("second co err = %v, want *AbortError (wedge never sends)", out2.err)
	}
	if ae2.Performance <= ae.Performance {
		t.Fatalf("second abort performance = %d, want > %d (instance moved on)", ae2.Performance, ae.Performance)
	}
	close(release)
	<-chWedge
	<-ch2Wedge
}

// TestEnrollmentDeadlineTightensBound: a per-enrollment Deadline aborts the
// performance even when the instance has no deadline of its own.
func TestEnrollmentDeadlineTightensBound(t *testing.T) {
	ctx := testCtx(t)
	release := make(chan struct{})
	defer close(release)
	def := wedgeDef(t, release)
	in := NewInstance(def)
	defer in.Close()

	start := time.Now()
	chCo := enrollAsync(ctx, in, Enrollment{
		PID: "C", Role: ids.Role("co"),
		Deadline: time.Now().Add(60 * time.Millisecond),
	})
	enrollAsync(ctx, in, Enrollment{PID: "W", Role: ids.Role("wedge")})

	out := <-chCo
	if !errors.Is(out.err, ErrPerformanceAborted) {
		t.Fatalf("co err = %v, want ErrPerformanceAborted", out.err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v, deadline was 60ms", elapsed)
	}
}

// TestDeadlineNoFalseAbort: a healthy performance that finishes before its
// deadline is not aborted and leaves the timer no chance to misfire on the
// next performance.
func TestDeadlineNoFalseAbort(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("quick").
		Role("a", func(rc Ctx) error { return rc.Send(ids.Role("b"), 1) }).
		Role("b", func(rc Ctx) error { _, err := rc.Recv(ids.Role("a")); return err }).
		Initiation(DelayedInitiation).
		Termination(DelayedTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def, WithPerformanceDeadline(500*time.Millisecond))
	defer in.Close()

	for i := 0; i < 20; i++ {
		chA := enrollAsync(ctx, in, Enrollment{PID: "A", Role: ids.Role("a")})
		chB := enrollAsync(ctx, in, Enrollment{PID: "B", Role: ids.Role("b")})
		if out := <-chA; out.err != nil {
			t.Fatalf("round %d: a err = %v", i, out.err)
		}
		if out := <-chB; out.err != nil {
			t.Fatalf("round %d: b err = %v", i, out.err)
		}
	}
}

// TestDrainCompletesInFlightAndRejectsNew: the graceful-shutdown contract.
// An in-flight performance runs to completion, offers made after Drain fail
// with ErrDraining, pending offers are released with ErrDraining, and Drain
// returns once the instance is idle — closed.
func TestDrainCompletesInFlightAndRejectsNew(t *testing.T) {
	ctx := testCtx(t)
	gate := make(chan struct{})
	def, err := NewScript("drainme").
		Role("a", func(rc Ctx) error {
			<-gate
			return rc.Send(ids.Role("b"), "v")
		}).
		Role("b", func(rc Ctx) error {
			rcv, err := rc.Recv(ids.Role("a"))
			rc.SetResult(0, rcv)
			return err
		}).
		Initiation(DelayedInitiation).
		Termination(DelayedTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)

	chA := enrollAsync(ctx, in, Enrollment{PID: "A", Role: ids.Role("a")})
	chB := enrollAsync(ctx, in, Enrollment{PID: "B", Role: ids.Role("b")})
	waitFor(t, func() bool { return in.Performances() == 1 })
	// A pending offer that cannot join performance 1 (membership closed at
	// the match, and role a is taken).
	chPend := enrollAsync(ctx, in, Enrollment{PID: "A2", Role: ids.Role("a")})

	drainDone := make(chan error, 1)
	go func() { drainDone <- in.Drain(ctx) }()
	waitFor(t, in.Draining)

	// New offers fail fast.
	if _, err := in.Enroll(ctx, Enrollment{PID: "X", Role: ids.Role("a")}); !errors.Is(err, ErrDraining) {
		t.Fatalf("new offer err = %v, want ErrDraining", err)
	}
	// The pending offer is released.
	if out := <-chPend; !errors.Is(out.err, ErrDraining) {
		t.Fatalf("pending offer err = %v, want ErrDraining", out.err)
	}

	// The in-flight performance is NOT cut short: it completes once gated.
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned %v before the in-flight performance finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if out := <-chA; out.err != nil {
		t.Fatalf("a err = %v, want nil (in-flight work completes under drain)", out.err)
	}
	if out := <-chB; out.err != nil || len(out.res.Values) == 0 || out.res.Values[0] != "v" {
		t.Fatalf("b out = %+v, want delivered value", out)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if !in.Closed() {
		t.Fatal("instance not closed after successful Drain")
	}
	// Post-drain offers report ErrDraining (the drain closed the instance).
	if _, err := in.Enroll(ctx, Enrollment{PID: "Y", Role: ids.Role("a")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain offer err = %v, want ErrClosed", err)
	}
}

// TestDrainIdleInstanceClosesImmediately: draining an idle instance closes
// it without blocking; Drain on a closed instance returns nil.
func TestDrainIdleInstanceClosesImmediately(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("idle").
		Role("a", func(rc Ctx) error { return nil }).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	if err := in.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if !in.Closed() {
		t.Fatal("idle instance not closed by Drain")
	}
	if err := in.Drain(ctx); err != nil {
		t.Fatalf("re-Drain = %v, want nil", err)
	}
}

// TestDrainContextExpiry: when the drain context ends first, Drain returns
// the context error and leaves the instance draining but open; a later
// Close still works.
func TestDrainContextExpiry(t *testing.T) {
	ctx := testCtx(t)
	gate := make(chan struct{})
	def, err := NewScript("slowdrain").
		Role("a", func(rc Ctx) error { <-gate; return nil }).
		Initiation(ImmediateInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	chA := enrollAsync(ctx, in, Enrollment{PID: "A", Role: ids.Role("a")})
	waitFor(t, func() bool { return in.Performances() == 1 })

	dctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := in.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	if in.Closed() {
		t.Fatal("instance closed by a timed-out Drain")
	}
	if !in.Draining() {
		t.Fatal("instance no longer draining after timed-out Drain")
	}
	close(gate)
	if out := <-chA; out.err != nil {
		t.Fatalf("a err = %v, in-flight work must still complete", out.err)
	}
	// The instance is now idle; a second Drain completes immediately.
	if err := in.Drain(ctx); err != nil {
		t.Fatalf("second Drain = %v", err)
	}
	if !in.Closed() {
		t.Fatal("instance not closed after second Drain")
	}
}

// TestDrainFreezesOpenMembership: under immediate initiation, a performance
// waiting for joiners that will never be admitted must not wedge Drain —
// membership is frozen, unfilled roles become absent.
func TestDrainFreezesOpenMembership(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("open").
		Role("first", func(rc Ctx) error {
			// Communicating with the never-to-arrive second role must yield
			// ErrRoleAbsent after the drain freezes membership.
			_, err := rc.Recv(ids.Role("second"))
			if errors.Is(err, ErrRoleAbsent) {
				return nil
			}
			return err
		}).
		Role("second", func(rc Ctx) error { return nil }).
		CriticalSet(ids.Role("first")).
		CriticalSet(ids.Role("second")).
		Initiation(ImmediateInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	chFirst := enrollAsync(ctx, in, Enrollment{PID: "F", Role: ids.Role("first")})
	waitFor(t, func() bool { return in.Performances() == 1 })

	if err := in.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if out := <-chFirst; out.err != nil {
		t.Fatalf("first err = %v, want nil (absent partner handled)", out.err)
	}
}

// TestPanicWithBlockedPartnersImmediateTermination: a panicking role body
// must not wedge its co-performers — they see the role as finished
// (ErrRoleFinished) and unwind; the panicker reports a RoleError.
func TestPanicWithBlockedPartnersImmediateTermination(t *testing.T) {
	testPanicWithBlockedPartners(t, ImmediateTermination)
}

// TestPanicWithBlockedPartnersDelayedTermination: same under delayed
// termination — the released panicker is held, the partner still unwinds,
// and the performance completes without deadlock.
func TestPanicWithBlockedPartnersDelayedTermination(t *testing.T) {
	testPanicWithBlockedPartners(t, DelayedTermination)
}

func testPanicWithBlockedPartners(t *testing.T, term Termination) {
	ctx := testCtx(t)
	entered := make(chan struct{})
	def, err := NewScript("panicky").
		Role("boom", func(rc Ctx) error {
			<-entered // make sure the partner is blocked first
			panic("deliberate test panic")
		}).
		Role("partner", func(rc Ctx) error {
			close(entered)
			_, err := rc.Recv(ids.Role("boom"))
			if errors.Is(err, ErrRoleFinished) {
				return nil // partner handled the failure
			}
			return err
		}).
		Initiation(DelayedInitiation).
		Termination(term).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()

	chBoom := enrollAsync(ctx, in, Enrollment{PID: "B", Role: ids.Role("boom")})
	chPartner := enrollAsync(ctx, in, Enrollment{PID: "P", Role: ids.Role("partner")})

	outBoom := <-chBoom
	var re *RoleError
	if !errors.As(outBoom.err, &re) {
		t.Fatalf("boom err = %v, want *RoleError from the recovered panic", outBoom.err)
	}
	outPartner := <-chPartner
	if outPartner.err != nil {
		t.Fatalf("partner err = %v, want nil (ErrRoleFinished handled in body)", outPartner.err)
	}
	// The instance must still accept work.
	if in.Closed() {
		t.Fatal("instance closed by a role panic")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainConcurrentWithEnrollStorm: many concurrent enrollers racing one
// Drain — every enrollment resolves (success or ErrDraining/ErrClosed), and
// Drain returns with the instance closed. Guards the drain state machine's
// wakeup paths.
func TestDrainConcurrentWithEnrollStorm(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("storm").
		Role("a", func(rc Ctx) error { return rc.Send(ids.Role("b"), 1) }).
		Role("b", func(rc Ctx) error { _, err := rc.Recv(ids.Role("a")); return err }).
		Initiation(DelayedInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)

	var wg sync.WaitGroup
	start := make(chan struct{})
	outcomes := make(chan error, 200)
	for i := 0; i < 100; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			<-start
			_, err := in.Enroll(ctx, Enrollment{PID: ids.PID(pidName("A", i)), Role: ids.Role("a")})
			outcomes <- err
		}(i)
		go func(i int) {
			defer wg.Done()
			<-start
			_, err := in.Enroll(ctx, Enrollment{PID: ids.PID(pidName("B", i)), Role: ids.Role("b")})
			outcomes <- err
		}(i)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let some performances begin
	if err := in.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	wg.Wait()
	close(outcomes)
	for err := range outcomes {
		if err != nil && !errors.Is(err, ErrDraining) && !errors.Is(err, ErrClosed) {
			t.Fatalf("enrollment err = %v, want nil/ErrDraining/ErrClosed", err)
		}
	}
	if !in.Closed() {
		t.Fatal("instance not closed after Drain")
	}
}

func pidName(prefix string, i int) string {
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestAbortOutranksFinishedRole: an aborted performance answers every later
// communication with the abort, also one that names a role whose body has
// returned since. The remote host aborts a performance whose enroller was cut
// and then lets the role's stand-in body return; a co-performer that asks a
// moment later must learn that the role was cut, not that it "already
// finished".
func TestAbortOutranksFinishedRole(t *testing.T) {
	ctx := testCtx(t)
	cutReleased := make(chan struct{})
	def, err := NewScript("cut").
		Role("co", func(rc Ctx) error {
			<-cutReleased
			return rc.Send(ids.Role("cut"), 1)
		}).
		Role("cut", func(rc Ctx) error {
			rc.(*RoleCtx).AbortPerformance("enroller disconnected")
			return nil
		}).
		Initiation(DelayedInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	chCo := enrollAsync(ctx, in, Enrollment{PID: "C", Role: ids.Role("co")})
	<-enrollAsync(ctx, in, Enrollment{PID: "X", Role: ids.Role("cut")})
	close(cutReleased) // its body returned: the cast has it finished
	var ae *AbortError
	if out := <-chCo; !errors.As(out.err, &ae) || ae.Culprit != ids.Role("cut") {
		t.Fatalf("co err = %v, want an *AbortError blaming cut", out.err)
	}
}
