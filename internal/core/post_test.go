package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
)

// settledCh is a Handoff that passes the assignment on.
type settledCh chan Offered

func (c settledCh) Settled(o Offered, err error) {
	if err == nil {
		c <- o
	}
}
func (settledCh) Aborted(Offered, *AbortError) {}
func (settledCh) Released()                    {}

// lockingCompleter is a posted op's completer that, as the remote host's
// does, takes the instance's lock — it asks whether its peer is filled —
// before it reports the outcome.
type lockingCompleter struct {
	rc   *RoleCtx
	peer ids.RoleRef
	out  chan error
}

func (c lockingCompleter) Complete(_ Selected, err error) {
	c.rc.Filled(c.peer)
	c.out <- err
}

// postedPair plays role a of a two-role script through Offer, leaving its
// RoleCtx to the test, and role b through Enroll with body; it returns a's
// offer once the cast is assigned, and b's outcome on the channel.
func postedPair(t *testing.T, in *Instance, body RoleBody) (Offered, <-chan error) {
	t.Helper()
	assigned := make(settledCh, 1)
	if _, err := in.Offer(context.Background(), Enrollment{PID: "A", Role: ids.Role("a")}, assigned); err != nil {
		t.Fatal(err)
	}
	bDone := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), Enrollment{PID: "B", Role: ids.Role("b"), Body: body})
		bDone <- err
	}()
	select {
	case o := <-assigned:
		return o, bDone
	case <-time.After(5 * time.Second):
		t.Fatal("the pair was never assigned")
	}
	return Offered{}, nil
}

var pairDef = NewScript("pair").
	Role("a", func(Ctx) error { return nil }).
	Role("b", func(Ctx) error { return nil }).
	MustBuild()

// TestPostedOpCompleterTakesTheInstanceLock: a posted receive is failed by
// each of the fabric calls the runtime makes under its lock — b's
// termination when its body returns, an abort, the instance's closing — and
// its completer, which takes that lock, is told once that lock is dropped:
// it would deadlock if it were told inside.
func TestPostedOpCompleterTakesTheInstanceLock(t *testing.T) {
	cases := map[string]struct {
		end  func(in *Instance, a *RoleCtx, release chan struct{})
		want error
	}{
		"terminate": {func(_ *Instance, _ *RoleCtx, release chan struct{}) { close(release) }, ErrRoleFinished},
		"abort":     {func(_ *Instance, a *RoleCtx, _ chan struct{}) { a.AbortPerformance("test") }, ErrPerformanceAborted},
		"close":     {func(in *Instance, _ *RoleCtx, _ chan struct{}) { in.Close() }, ErrClosed},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			in := NewInstance(pairDef)
			defer in.Close()
			release := make(chan struct{})
			o, bDone := postedPair(t, in, func(rc Ctx) error {
				select {
				case <-release:
				case <-rc.Context().Done():
				}
				return nil
			})
			rc := o.Ctx()
			c := lockingCompleter{rc, ids.Role("b"), make(chan error, 2)}
			var p Post
			rc.PostRecvTag(&p, ids.Role("b"), "t", c)
			tc.end(in, rc, release)
			select {
			case err := <-c.out:
				if !errors.Is(err, tc.want) {
					t.Fatalf("posted receive failed with %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the posted receive was never completed (or its completer deadlocked on the instance's lock)")
			}
			select {
			case err := <-c.out:
				t.Fatalf("the completer was told twice (again: %v)", err)
			case <-time.After(20 * time.Millisecond):
			}
			if _, _, err := o.Finish(nil); name == "terminate" && err != nil {
				t.Fatalf("a: %v", err)
			}
			if name != "terminate" {
				close(release)
			}
			<-bDone
		})
	}
}

// chaosOp is a FaultInjector that delays every communication.
type chaosOp struct{ delay time.Duration }

func (f chaosOp) OpDelay() time.Duration     { return f.delay }
func (f chaosOp) WakeDelay() time.Duration   { return 0 }
func (f chaosOp) CancelAfter() time.Duration { return 0 }

// TestPostedOpKeepsTheChaosFaults: OpDelay means for a posted op what it
// means for a blocking one — the op reaches the fabric late — without the
// poster waiting it out.
func TestPostedOpKeepsTheChaosFaults(t *testing.T) {
	t.Run("OpDelay", func(t *testing.T) {
		in := NewInstance(pairDef, WithFaultInjection(chaosOp{delay: 100 * time.Millisecond}))
		defer in.Close()
		o, bDone := postedPair(t, in, func(rc Ctx) error { return rc.Send(ids.Role("a"), "v") })
		rc := o.Ctx()
		c := lockingCompleter{rc, ids.Role("b"), make(chan error, 1)}
		var p Post
		start := time.Now()
		rc.PostRecvTag(&p, ids.Role("b"), "", c)
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("posting took %v: the delay was slept on the poster", d)
		}
		if err := <-c.out; err != nil {
			t.Fatalf("delayed posted receive: %v", err)
		}
		if d := time.Since(start); d < 100*time.Millisecond {
			t.Fatalf("the delayed op completed after %v, before its delay", d)
		}
		o.Finish(nil)
		if err := <-bDone; err != nil {
			t.Fatal(err)
		}
	})
}
