package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
)

// openGatherDef builds a hub + open family script where the hub greets
// every present member, skipping absent ones via Terminated.
func openGatherDef(t *testing.T, init Initiation) Definition {
	t.Helper()
	def, err := NewScript("opengather").
		Role("hub", func(rc Ctx) error {
			n := rc.FamilySize("w")
			greeted := 0
			for i := 1; i <= n; i++ {
				m := ids.Member("w", i)
				if rc.Terminated(m) {
					continue
				}
				if err := rc.Send(m, i); err != nil {
					return err
				}
				greeted++
			}
			rc.SetResult(0, greeted)
			return nil
		}).
		OpenFamily("w", func(rc Ctx) error {
			v, err := rc.Recv(ids.Role("hub"))
			rc.SetResult(0, v)
			return err
		}).
		Initiation(init).
		CriticalSet(ids.Role("hub")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// TestOpenFamilyMembershipFreezesAtCommit: under immediate initiation, the
// performance commits as soon as the critical set {hub} is covered; open
// members arriving after commitment wait for the next performance.
func TestOpenFamilyMembershipFreezesAtCommit(t *testing.T) {
	ctx := testCtx(t)
	in := NewInstance(openGatherDef(t, ImmediateInitiation))
	defer in.Close()

	// Performance 1: hub alone; the critical set covers immediately, so the
	// membership closes with zero workers.
	res, err := in.Enroll(ctx, Enrollment{PID: "H", Role: ids.Role("hub")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 0 {
		t.Fatalf("performance 1 greeted %v workers, want 0", res.Values[0])
	}

	// A late worker now waits for performance 2...
	late := enrollAsync(ctx, in, Enrollment{PID: "W1", Role: ids.Member("w", 1)})
	time.Sleep(20 * time.Millisecond)
	select {
	case out := <-late:
		t.Fatalf("late worker joined a finished performance: %+v", out)
	default:
	}
	// ...and performance 2 includes it.
	res, err = in.Enroll(ctx, Enrollment{PID: "H", Role: ids.Role("hub")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 1 {
		t.Fatalf("performance 2 greeted %v workers, want 1", res.Values[0])
	}
	out := <-late
	if out.err != nil || out.res.Values[0] != 1 {
		t.Fatalf("late worker: %+v", out)
	}
	if out.res.Performance != 2 {
		t.Fatalf("late worker served in performance %d, want 2", out.res.Performance)
	}
}

// TestOpenFamilySparseIndices: open members may enroll with arbitrary
// (sparse) indices; FamilySize reports the maximum, and the hub's
// Terminated predicate identifies the holes.
func TestOpenFamilySparseIndices(t *testing.T) {
	ctx := testCtx(t)
	in := NewInstance(openGatherDef(t, DelayedInitiation))
	defer in.Close()

	chans := map[int]<-chan enrollOut{}
	for _, i := range []int{2, 5} { // holes at 1, 3, 4
		chans[i] = enrollAsync(ctx, in, Enrollment{
			PID: ids.PID(fmt.Sprintf("W%d", i)), Role: ids.Member("w", i),
		})
	}
	for in.PendingOffers() < 2 {
		time.Sleep(time.Millisecond)
	}
	res, err := in.Enroll(ctx, Enrollment{PID: "H", Role: ids.Role("hub")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 2 {
		t.Fatalf("hub greeted %v, want 2 (sparse members)", res.Values[0])
	}
	for i, ch := range chans {
		out := <-ch
		if out.err != nil || out.res.Values[0] != i {
			t.Fatalf("worker %d: %+v", i, out)
		}
	}
}

// TestOpenFamilySendToPhantomAfterClosure: once membership is closed, a
// send to a never-enrolled open member fails with ErrRoleAbsent instead of
// blocking.
func TestOpenFamilySendToPhantomAfterClosure(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("phantom").
		Role("hub", func(rc Ctx) error {
			err := rc.Send(ids.Member("w", 9), "hello")
			if !errors.Is(err, ErrRoleAbsent) {
				return fmt.Errorf("send to phantom member: %v", err)
			}
			return nil
		}).
		OpenFamily("w", func(rc Ctx) error { return nil }).
		CriticalSet(ids.Role("hub")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	if _, err := in.Enroll(ctx, Enrollment{PID: "H", Role: ids.Role("hub")}); err != nil {
		t.Fatal(err)
	}
}
