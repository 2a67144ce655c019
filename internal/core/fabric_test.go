package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/rendezvous"
)

// An operation naming a member of an open family used to spell the member's
// fabric address out on every call (a string ids caches only for short
// family names; this one is too long); it reads the member's endpoint from
// the cast now. A warm Send to, and Recv from, an open member allocate
// nothing, on either side.
func TestOpenFamilyOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var ping, stop any = "ping", "stop"
	family := strings.Repeat("w", 80)
	allocs := -1.0
	def, err := NewScript("openecho").
		Role("hub", func(rc Ctx) error {
			m := ids.Member(family, 1)
			var opErr error
			round := func() {
				if err := rc.Send(m, ping); err != nil {
					opErr = err
				}
				if _, err := rc.Recv(m); err != nil {
					opErr = err
				}
			}
			round() // the first exchange makes the two cells
			allocs = testing.AllocsPerRun(200, round)
			if opErr != nil {
				return opErr
			}
			return rc.Send(m, stop)
		}).
		OpenFamily(family, func(rc Ctx) error {
			hub := ids.Role("hub")
			for {
				v, err := rc.Recv(hub)
				if err != nil || v == stop {
					return err
				}
				if err := rc.Send(hub, v); err != nil {
					return err
				}
			}
		}).
		CriticalSet(ids.Role("hub"), ids.Member(family, 1)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	ctx := testCtx(t)
	member := enrollAsync(ctx, in, Enrollment{PID: "W", Role: ids.Member(family, 1)})
	if _, err := in.Enroll(ctx, Enrollment{PID: "H", Role: ids.Role("hub")}); err != nil {
		t.Fatal(err)
	}
	if out := <-member; out.err != nil {
		t.Fatal(out.err)
	}
	if allocs != 0 {
		t.Fatalf("a Send to and a Recv from an open-family member allocate %v objects, want 0", allocs)
	}
}

// One instance, one fabric: its performances use it one after the other.
// Their casts differ — the hub alone is critical, the closed roles x and y
// come or stay away (the partial casts of Figure 5), and members of the open
// family w come under indices that change from one performance to the next,
// so the same endpoint ID is w[7] now and w[3] then. Every message carries
// its performance's number; a role that is away is absent to the hub (its
// endpoint terminated) and must be there again, live, when it next comes.
// After each performance the fabric holds nothing of it and its table is the
// closed roles again.
func TestInstanceFabricServesPerformancesInTurn(t *testing.T) {
	hub := ids.Role("hub")
	member := func(rc Ctx) error {
		v, err := rc.Recv(hub)
		rc.SetResult(0, v)
		return err
	}
	def, err := NewScript("turns").
		Role("hub", func(rc Ctx) error {
			present := rc.Arg(0).([]ids.RoleRef)
			for _, r := range []ids.RoleRef{ids.Role("x"), ids.Role("y")} {
				if !rc.Filled(r) {
					if err := rc.Send(r, -1); !errors.Is(err, ErrRoleAbsent) {
						return fmt.Errorf("send to %s, which is away: %v", r, err)
					}
				}
			}
			for _, r := range present {
				if err := rc.Send(r, rc.Performance()); err != nil {
					return fmt.Errorf("send to %s: %w", r, err)
				}
			}
			return nil
		}).
		Role("x", member).
		Role("y", member).
		OpenFamily("w", member).
		CriticalSet(hub).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	fab := in.fabric
	ctx := testCtx(t)
	rng := rand.New(rand.NewSource(20261001))
	for perf := 1; perf <= 40; perf++ {
		var present []ids.RoleRef
		for _, r := range []ids.RoleRef{ids.Role("x"), ids.Role("y")} {
			if rng.Intn(2) == 0 {
				present = append(present, r)
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			present = append(present, ids.Member("w", 1+10*i+rng.Intn(10)))
		}
		outs := make([]<-chan enrollOut, len(present))
		for i, r := range present {
			outs[i] = enrollAsync(ctx, in, Enrollment{PID: ids.PID(r.String()), Role: r})
		}
		for in.PendingEnrollments() < len(present) {
			time.Sleep(50 * time.Microsecond)
		}
		if _, err := in.Enroll(ctx, Enrollment{PID: "H", Role: hub, Args: []any{present}}); err != nil {
			t.Fatalf("performance %d: hub: %v", perf, err)
		}
		for i, ch := range outs {
			if out := <-ch; out.err != nil || out.res.Values[0] != perf {
				t.Fatalf("performance %d: %s got %v, %v", perf, present[i], out.res.Values, out.err)
			}
		}
		in.mu.Lock()
		same := in.fabric == fab
		in.mu.Unlock()
		if !same {
			t.Fatalf("performance %d: the instance changed fabrics", perf)
		}
		if n := fab.PendingCount() + len(fab.WaitingIDs()) + int(fab.FastCommits()); n != 0 {
			t.Fatalf("performance %d left %d pending ops, waiters or fast commits behind", perf, n)
		}
		for _, r := range in.roles {
			if fab.Terminated(rendezvous.Addr(r.String())) {
				t.Fatalf("performance %d left %s terminated", perf, r)
			}
		}
		// The next name gets the first ID past the closed roles: the members
		// of w are gone from the table. (So is this one, come the next Reset.)
		if id := fab.Endpoint("probe"); int(id) != len(in.roles) {
			t.Fatalf("performance %d: the table has %d endpoints, want the %d closed roles", perf, id, len(in.roles))
		}
	}
}

// An aborted performance keeps its fabric, which goes on answering with the
// abort, and the instance's next performance gets a new one.
func TestAbortedPerformanceKeepsItsFabric(t *testing.T) {
	release := make(chan struct{})
	def, err := NewScript("wedge").
		Role("a", func(rc Ctx) error {
			if rc.Arg(0) == "wedge" {
				<-release // never communicates, until long after the abort
				_, _, _, err := rc.RecvAny()
				return err
			}
			return rc.Send(ids.Role("b"), "ok")
		}).
		Role("b", func(rc Ctx) error {
			v, err := rc.Recv(ids.Role("a"))
			rc.SetResult(0, v)
			return err
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def, WithPerformanceDeadline(20*time.Millisecond))
	defer in.Close()
	first := in.fabric
	ctx := testCtx(t)
	wedged := enrollAsync(ctx, in, Enrollment{PID: "A", Role: ids.Role("a"), Args: []any{"wedge"}})
	var abort *AbortError
	if _, err := in.Enroll(ctx, Enrollment{PID: "B", Role: ids.Role("b")}); !errors.As(err, &abort) {
		t.Fatalf("b in the wedged performance: %v, want an abort", err)
	}
	in.mu.Lock()
	kept := in.fabric
	in.mu.Unlock()
	if kept == first {
		t.Fatal("the instance still holds the aborted performance's fabric")
	}
	// The second performance runs while the first one's wedged body is still
	// out, and on another fabric.
	second := enrollAsync(ctx, in, Enrollment{PID: "A2", Role: ids.Role("a")})
	res, err := in.Enroll(ctx, Enrollment{PID: "B2", Role: ids.Role("b")})
	if err != nil || res.Values[0] != "ok" {
		t.Fatalf("b in the next performance: %v, %v", res.Values, err)
	}
	if out := <-second; out.err != nil {
		t.Fatal(out.err)
	}
	in.mu.Lock()
	next := in.fabric
	in.mu.Unlock()
	if next == nil || next == first {
		t.Fatalf("the next performance ran on fabric %p, the aborted one's is %p", next, first)
	}
	close(release)
	if out := <-wedged; !errors.As(out.err, &abort) {
		t.Fatalf("the wedged role's late receive: %v, want the abort", out.err)
	}
}
