package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/chaos"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// An enroller waits on its wake channel alone, while pending and, under
// delayed termination, while held; the end of its context reaches the channel
// through the instance's watch. These tests pin who signals the channel when
// the instance closes or drains —
// nothing else wakes an enroller whose context cannot end — with every
// scheduler wakeup withheld and redelivered late (chaos WakeDelay), so a
// Close or Drain token regularly overtakes an assignment's.

const pendingEnrollers = 64

// lateWakeups withholds every scheduler wakeup for up to 2 ms.
func lateWakeups(seed int64) core.Option {
	return core.WithFaultInjection(chaos.New(chaos.Config{Seed: seed, WakeDelayP: 1, WakeDelayMax: 2 * time.Millisecond}))
}

type enrollOutcome struct {
	role ids.RoleRef
	res  core.Result
	err  error
}

// castSize is the cast of busyInstance's script.
const castSize = 3

// busyInstance is an instance of a delayed-termination script with its first
// cast running — lead has finished and is held with a result, worker is
// blocked in the fabric waiting for signal, signal sits in its body until
// release is closed and then sends — and pendingEnrollers more
// offers for lead pending behind it, half of them under a context that
// cannot end. Every enrollment's outcome arrives on the returned channel.
func busyInstance(t *testing.T, seed int64) (in *core.Instance, release chan struct{}, outcomes chan enrollOutcome) {
	t.Helper()
	release = make(chan struct{})
	var leadDone atomic.Bool
	def := core.NewScript("busy").
		Role("lead", func(rc core.Ctx) error {
			rc.SetResult(0, "kept")
			leadDone.Store(true)
			return nil
		}).
		Role("worker", func(rc core.Ctx) error {
			_, err := rc.Recv(ids.Role("signal"))
			return err
		}).
		Role("signal", func(rc core.Ctx) error {
			<-release
			return rc.Send(ids.Role("worker"), "go")
		}).
		MustBuild()
	in = core.NewInstance(def, lateWakeups(seed))
	outcomes = make(chan enrollOutcome, pendingEnrollers+castSize)
	enroll := func(ctx context.Context, pid string, role ids.RoleRef) {
		go func() {
			res, err := in.Enroll(ctx, core.Enrollment{PID: ids.PID(pid), Role: role})
			outcomes <- enrollOutcome{role, res, err}
		}()
	}
	enroll(context.Background(), "W", ids.Role("worker"))
	enroll(context.Background(), "S", ids.Role("signal"))
	enroll(context.Background(), "L", ids.Role("lead"))
	waitFor(t, "the first cast to run and lead to finish", func() bool {
		return in.Performances() == 1 && leadDone.Load()
	})
	cancellable, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < pendingEnrollers; i++ {
		ctx := context.Background()
		if i%2 == 1 {
			ctx = cancellable
		}
		enroll(ctx, fmt.Sprintf("P%d", i), ids.Role("lead"))
	}
	waitFor(t, "the offers to be pending", func() bool { return in.PendingOffers() == pendingEnrollers })
	return in, release, outcomes
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// collect takes n outcomes; one that never comes is an enroller nobody woke.
func collect(t *testing.T, outcomes chan enrollOutcome, n int) []enrollOutcome {
	t.Helper()
	got := make([]enrollOutcome, 0, n)
	timeout := time.After(20 * time.Second)
	for len(got) < n {
		select {
		case o := <-outcomes:
			got = append(got, o)
		case <-timeout:
			t.Fatalf("%d of %d enrollers returned; the rest were never woken", len(got), n)
		}
	}
	return got
}

func TestCloseWakesEveryPendingAndHeldEnroller(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in, release, outcomes := busyInstance(t, seed)
		in.Close()
		close(release) // signal sends into the closed instance
		pending := 0
		for _, o := range collect(t, outcomes, pendingEnrollers+castSize) {
			switch {
			case o.res.Performance == 0: // never assigned
				if !errors.Is(o.err, core.ErrClosed) {
					t.Fatalf("pending enroller returned %v, want ErrClosed", o.err)
				}
				pending++
			case o.role == ids.Role("lead"):
				// Finished before Close landed: released with what it made.
				if o.err != nil || len(o.res.Values) != 1 || o.res.Values[0] != "kept" {
					t.Fatalf("held lead released with %v, %v; want its result and no error", o.res.Values, o.err)
				}
			default:
				// Interrupted in its Recv or Send by the closure — or, its own
				// wakeup withheld until its partner had left, refused at the door.
				var re *core.RoleError
				if !errors.As(o.err, &re) || !(errors.Is(o.err, core.ErrClosed) || errors.Is(o.err, core.ErrRoleFinished)) {
					t.Fatalf("interrupted %s returned %v, want a RoleError wrapping ErrClosed or ErrRoleFinished", o.role, o.err)
				}
			}
		}
		if pending != pendingEnrollers {
			t.Fatalf("%d enrollers returned unassigned, want %d", pending, pendingEnrollers)
		}
	}
}

func TestDrainTurnsPendingAwayAndLetsTheCastFinish(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in, release, outcomes := busyInstance(t, seed)
		drained := make(chan error, 1)
		go func() { drained <- in.Drain(context.Background()) }()
		for _, o := range collect(t, outcomes, pendingEnrollers) {
			if o.res.Performance != 0 || !errors.Is(o.err, core.ErrDraining) {
				t.Fatalf("pending enroller returned perf %d, %v; want ErrDraining", o.res.Performance, o.err)
			}
		}
		// The cast is untouched: lead still held, the others still in their bodies.
		select {
		case o := <-outcomes:
			t.Fatalf("%s left a draining instance's running cast early: %v", o.role, o.err)
		case err := <-drained:
			t.Fatalf("Drain returned %v with a cast running", err)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		for _, o := range collect(t, outcomes, castSize) {
			if o.err != nil || o.res.Performance != 1 {
				t.Fatalf("%s of the running cast returned perf %d, %v; want a clean finish", o.role, o.res.Performance, o.err)
			}
			if o.role == ids.Role("lead") && (len(o.res.Values) != 1 || o.res.Values[0] != "kept") {
				t.Fatalf("lead's results = %v", o.res.Values)
			}
		}
		if err := <-drained; err != nil || !in.Closed() {
			t.Fatalf("Drain = %v, Closed = %v", err, in.Closed())
		}
	}
}

// TestAssignmentBeatsCancellation cancels an enroller's context after its
// offer was assigned but, the wakeup being withheld, before it learns so:
// it wakes on the cancellation, finds itself cast, and must perform — a
// withdrawal here would strand its partner in a performance missing a role.
func TestAssignmentBeatsCancellation(t *testing.T) {
	var xRan atomic.Int32
	def := core.NewScript("pair").
		Role("x", func(core.Ctx) error { xRan.Add(1); return nil }).
		Role("y", func(core.Ctx) error { return nil }).
		Termination(core.ImmediateTermination).
		MustBuild()
	for i := 0; i < 100; i++ {
		xRan.Store(0)
		in := core.NewInstance(def, lateWakeups(int64(i+1)))
		ctx, cancel := context.WithCancel(context.Background())
		xDone := make(chan enrollOutcome, 1)
		go func() {
			res, err := in.Enroll(ctx, core.Enrollment{PID: "X", Role: ids.Role("x")})
			xDone <- enrollOutcome{res: res, err: err}
		}()
		waitFor(t, "x to be pending", func() bool { return in.PendingOffers() == 1 })
		yDone := make(chan error, 1)
		go func() {
			_, err := in.Enroll(context.Background(), core.Enrollment{PID: "Y", Role: ids.Role("y")})
			yDone <- err
		}()
		if i%4 != 0 { // mostly strictly after the assignment; sometimes racing it
			waitFor(t, "the cast to form", func() bool { return in.Performances() == 1 })
		}
		cancel()
		x := <-xDone
		if in.Performances() == 0 {
			// Withdrawn before any cast formed — the racing variant only.
			if i%4 != 0 || !errors.Is(x.err, context.Canceled) || xRan.Load() != 0 {
				t.Fatalf("iteration %d: no cast, x returned %v after %d runs of its body", i, x.err, xRan.Load())
			}
			in.Close()
			<-yDone
			continue
		}
		if x.err != nil || x.res.Performance != 1 || xRan.Load() != 1 {
			t.Fatalf("iteration %d: x was cast, then returned perf %d, %v after %d runs of its body", i, x.res.Performance, x.err, xRan.Load())
		}
		if err := <-yDone; err != nil {
			t.Fatalf("iteration %d: y, cast with x, returned %v", i, err)
		}
		in.Close()
	}
}

// TestSharedContextEndReachesEveryWait cancels one context shared by 24
// enrollers, first while their offers are pending and then while their roles
// are held: the instance's watch fires once for all of them, and each Enroll
// returns as a wait on its own context would — withdrawn with ctx's error
// when pending, cut loose with its results and ctx's error when held.
func TestSharedContextEndReachesEveryWait(t *testing.T) {
	const n = residents
	in := core.NewInstance(idleStar(n))
	defer in.Close()
	recv := func(rc core.Ctx) error {
		v, err := rc.Recv(ids.Role("sender"))
		rc.SetResult(0, v)
		return err
	}
	recipients := func(ctx context.Context) chan enrollOutcome {
		outcomes := make(chan enrollOutcome, n)
		for i := 1; i <= n; i++ {
			go func() {
				role := ids.Member("recipient", i)
				res, err := in.Enroll(ctx, core.Enrollment{PID: ids.PID(fmt.Sprintf("R%d", i)), Role: role, Body: recv})
				outcomes <- enrollOutcome{role, res, err}
			}()
		}
		return outcomes
	}

	ctx, cancel := context.WithCancel(context.Background())
	outcomes := recipients(ctx)
	waitFor(t, "the recipients to be pending", func() bool { return in.PendingOffers() == n })
	cancel()
	for _, o := range collect(t, outcomes, n) {
		if !errors.Is(o.err, context.Canceled) || o.res.Performance != 0 {
			t.Fatalf("pending %s returned perf %d, %v; want withdrawn with context.Canceled", o.role, o.res.Performance, o.err)
		}
	}
	if got := in.PendingOffers(); got != 0 {
		t.Fatalf("%d offers pending after every enroller withdrew", got)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	outcomes = recipients(ctx)
	waitFor(t, "the recipients to be pending", func() bool { return in.PendingOffers() == n })
	held, hold := make(chan struct{}), make(chan struct{})
	senderErr := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), core.Enrollment{PID: "S", Role: ids.Role("sender"), Args: []any{7},
			Body: func(rc core.Ctx) error {
				var err error
				for i := 1; i <= n && err == nil; i++ {
					err = rc.Send(ids.Member("recipient", i), rc.Arg(0))
				}
				for i := 1; i <= n; i++ {
					for !rc.Terminated(ids.Member("recipient", i)) {
						time.Sleep(50 * time.Microsecond)
					}
				}
				close(held)
				<-hold
				return err
			}})
		senderErr <- err
	}()
	<-held
	cancel()
	for _, o := range collect(t, outcomes, n) {
		if !errors.Is(o.err, context.Canceled) || o.res.Performance != 1 || len(o.res.Values) != 1 || o.res.Values[0] != 7 {
			t.Fatalf("held %s returned perf %d, %v, %v; want performance 1, its result and context.Canceled",
				o.role, o.res.Performance, o.res.Values, o.err)
		}
	}
	close(hold)
	if err := <-senderErr; err != nil {
		t.Fatalf("the sender, its recipients cut loose: %v", err)
	}
}
