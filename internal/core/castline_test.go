package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/rendezvous"
)

// TestOpenMemberLineIsNotItsEndpoint: a member of an open family has a line
// of its performance's cast, given when it is assigned, and an endpoint in
// the fabric, given when it is assigned or when an operation names it first,
// whichever comes first. Under immediate initiation the two orders differ:
// the hub names w[2] (and w[3]) before anyone plays them, so w[1], assigned
// first, gets the later endpoint. Everything that maps an endpoint back to
// its member, or a member to its line, must answer as if they agreed.
func TestOpenMemberLineIsNotItsEndpoint(t *testing.T) {
	hub, w1, w2, w3 := ids.Role("hub"), ids.Member("w", 1), ids.Member("w", 2), ids.Member("w", 3)
	build := func(hubBody, memberBody RoleBody, critical ...ids.RoleRef) *Instance {
		def := NewScript("lines").
			Role("hub", hubBody).
			OpenFamily("w", memberBody).
			CriticalSet(append([]ids.RoleRef{hub}, critical...)...).
			Initiation(ImmediateInitiation).
			Termination(ImmediateTermination).
			MustBuild()
		in := NewInstance(def)
		t.Cleanup(in.Close)
		return in
	}
	assigned := func(in *Instance) int {
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.active == nil {
			return 0
		}
		return in.active.nAssigned
	}
	enroll := func(ctx context.Context, in *Instance, r ids.RoleRef, deadline time.Time) <-chan enrollOut {
		return enrollAsync(ctx, in, Enrollment{PID: ids.PID(r.String()), Role: r, Deadline: deadline})
	}
	// laterEndpoint checks the premise: w[1] was assigned first, and has the
	// later endpoint.
	laterEndpoint := func(in *Instance) {
		in.mu.Lock()
		defer in.mu.Unlock()
		fab := in.active.fabric
		if e1, e2 := fab.Endpoint(rendezvous.Addr(w1.String())), fab.Endpoint(rendezvous.Addr(w2.String())); e1 < e2 {
			t.Fatalf("w[1] has endpoint %d and w[2] %d: the scenario no longer orders them", e1, e2)
		}
	}

	t.Run("names", func(t *testing.T) {
		ctx := testCtx(t)
		in := build(func(rc Ctx) error {
			// Names w[2], then w[3], before either plays: their endpoints come first.
			sel, err := rc.Select(RecvFrom(w2), RecvFrom(w3))
			if err != nil || sel.Index != 0 || sel.Peer != w2 || sel.Val != w2.String() {
				t.Errorf("hub's Select: %+v, %v; want branch 0 from %s", sel, err, w2)
			}
			for range 2 {
				from, _, v, err := rc.RecvAny()
				if err != nil || v != from.String() {
					t.Errorf("RecvAny names %s for the value %v (%v)", from, v, err)
				}
			}
			if !rc.Filled(w1) || !rc.Filled(w2) || rc.Filled(w3) {
				t.Errorf("Filled w[1..3] = %v %v %v, want true true false", rc.Filled(w1), rc.Filled(w2), rc.Filled(w3))
			}
			if n := rc.FamilySize("w"); n != 2 {
				t.Errorf("FamilySize = %d, want 2", n)
			}
			if rc.Terminated(w1) || rc.Terminated(w2) || !rc.Terminated(w3) {
				t.Errorf("Terminated w[1..3] = %v %v %v, want false false true", rc.Terminated(w1), rc.Terminated(w2), rc.Terminated(w3))
			}
			if err := rc.Send(w1, "bye"); err != nil {
				return err
			}
			for end := time.Now().Add(10 * time.Second); !rc.Terminated(w1); time.Sleep(time.Millisecond) {
				if time.Now().After(end) {
					t.Errorf("w[1] finished but is not Terminated")
					break
				}
			}
			if rc.Terminated(w2) {
				t.Errorf("w[2] is Terminated while it plays")
			}
			return rc.Send(w2, "bye")
		}, func(rc Ctx) error {
			if rc.Index() == 1 {
				// Blocked on w[3] when membership closes without it.
				if _, err := rc.Recv(w3); !errors.Is(err, ErrRoleAbsent) {
					t.Errorf("w[1]'s Recv from the unplayed w[3]: %v, want ErrRoleAbsent", err)
				}
			} else if err := rc.Send(hub, rc.Role().String()); err != nil { // into the hub's Select
				return err
			}
			if err := rc.Send(hub, rc.Role().String()); err != nil { // into a RecvAny
				return err
			}
			_, err := rc.Recv(hub)
			return err
		}, w1, w2)
		h := enroll(ctx, in, hub, time.Time{})
		poll(t, "the hub to wait in its Select", func() bool { return parked(in, hub) })
		m1 := enroll(ctx, in, w1, time.Time{})
		poll(t, "w[1] to be assigned", func() bool { return assigned(in) == 2 })
		poll(t, "w[1] to wait on w[3]", func() bool { return parked(in, w1) })
		laterEndpoint(in)
		m2 := enroll(ctx, in, w2, time.Time{}) // covers the critical set: membership closes
		for i, ch := range []<-chan enrollOut{h, m1, m2} {
			if out := <-ch; out.err != nil {
				t.Errorf("%s: %v", []ids.RoleRef{hub, w1, w2}[i], out.err)
			}
		}
	})

	t.Run("blame", func(t *testing.T) {
		ctx := testCtx(t)
		release := make(chan struct{})
		in := build(func(rc Ctx) error {
			_, err := rc.RecvTag(w2, "never") // names w[2] before it plays
			return err
		}, func(rc Ctx) error {
			if rc.Index() == 2 {
				_, err := rc.RecvTag(hub, "never")
				return err
			}
			<-release // w[1] and w[3] idle outside the fabric
			return nil
		}, w1, w2, w3)
		h := enroll(ctx, in, hub, time.Time{})
		poll(t, "the hub to wait on w[2]", func() bool { return parked(in, hub) })
		m1 := enroll(ctx, in, w1, time.Time{})
		poll(t, "w[1] to be assigned", func() bool { return assigned(in) == 2 })
		m2 := enroll(ctx, in, w2, time.Time{})
		poll(t, "w[2] to wait on the hub", func() bool { return assigned(in) == 3 && parked(in, w2) })
		laterEndpoint(in)
		// The last member's deadline aborts the performance. The hub and w[2]
		// wait in the fabric; w[1], first in role order of the others, does not.
		m3 := enroll(ctx, in, w3, time.Now().Add(20*time.Millisecond))
		for i, ch := range []<-chan enrollOut{h, m2} {
			var ae *AbortError
			if out := <-ch; !errors.As(out.err, &ae) || ae.Culprit != w1 {
				t.Errorf("%s unwound with %v, want an abort blaming %s", []ids.RoleRef{hub, w2}[i], out.err, w1)
			}
		}
		close(release)
		<-m1
		<-m3
	})
}
