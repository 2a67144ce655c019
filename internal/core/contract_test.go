package core_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/trace"
)

// The failure contract, core's rows (ROADMAP item 2): each row names a cause
// and the phase it strikes in, and checks the victim's error class, what each
// co-performer is told and whom it names, the performance's trace, and that
// the next cast is admitted.

var (
	victim = ids.Role("victim")
	peer   = ids.Role("peer")
)

// parkedOps are the blocking calls a victim can be parked in when its context
// ends: a receive in a cell, an alternative in the matcher, and a Scatter. Each
// is paired with the call its peer makes to it, which fails once the victim
// has gone and commits with the next cast's.
var parkedOps = []struct {
	name         string
	park, follow func(rc core.Ctx) error // the victim's call; the peer's to it
}{
	{"recv",
		func(rc core.Ctx) error { _, err := rc.Recv(peer); return err },
		func(rc core.Ctx) error { return rc.Send(victim, 1) }},
	{"select",
		func(rc core.Ctx) error {
			_, err := rc.Select(core.RecvFrom(peer), core.RecvTagFrom(peer, "other"))
			return err
		},
		func(rc core.Ctx) error { return rc.Send(victim, 1) }},
	{"sendall",
		func(rc core.Ctx) error { return rc.SendAll([]ids.RoleRef{peer}, 1) },
		func(rc core.Ctx) error { _, err := rc.Recv(victim); return err }},
}

// opParks returns what the one goroutine parked in the fabric's await waits
// on: "chan receive", its outcome alone, or "select", its outcome and
// ctx.Done().
func opParks(t *testing.T) string {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if !strings.Contains(g, "rendezvous.(*Fabric).await(") {
				continue
			}
			state, _, _ := strings.Cut(g[strings.Index(g, "[")+1:strings.Index(g, "]")], ",")
			if state == "chan receive" || state == "select" {
				return state
			}
		}
	}
	t.Fatal("no role parked in the fabric")
	return ""
}

// TestFailureContractContextEndsWithAnOpParked is the row "the caller's
// context ends while the role performs, parked in a blocking call", watched
// and declined. Watched, the instance's watch holds a set for the victim's
// context (a second offer under it waits for the next cast), and the call
// parks on its outcome alone; declined, the context is the victim's own and
// the call selects on it. Either way the call is withdrawn and fails with the
// context's error, the victim's body returns it and its Enroll reports a
// *RoleError; the peer, calling the victim after it has gone, is told
// ErrRoleFinished naming the victim; nothing aborts the performance, whose
// trace holds no communication; and the next cast performs.
func TestFailureContractContextEndsWithAnOpParked(t *testing.T) {
	for _, op := range parkedOps {
		for _, watched := range []bool{true, false} {
			name, want := op.name+"/watched", "chan receive"
			if !watched {
				name, want = op.name+"/declined", "select"
			}
			t.Run(name, func(t *testing.T) {
				nop := func(core.Ctx) error { return nil }
				def := core.NewScript("row").Role("victim", nop).Role("peer", nop).
					Termination(core.ImmediateTermination).MustBuild()
				var log trace.Log
				in := core.NewInstance(def, core.WithTracer(&log))
				defer in.Close()
				enroll := func(ctx context.Context, pid string, role ids.RoleRef, body core.RoleBody) chan enrollOutcome {
					out := make(chan enrollOutcome, 1)
					go func() {
						res, err := in.Enroll(ctx, core.Enrollment{PID: ids.PID(pid), Role: role, Body: body})
						out <- enrollOutcome{role, res, err}
					}()
					return out
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				victimOut := enroll(ctx, "V", victim, op.park)
				waitFor(t, "the victim's offer", func() bool { return in.PendingOffers() == 1 })
				var spareOut chan enrollOutcome
				if watched {
					spareOut = enroll(ctx, "V2", victim, op.park) // the watch's set for ctx
					waitFor(t, "the second offer", func() bool { return in.PendingOffers() == 2 })
				}
				gate := make(chan struct{})
				peerOut := enroll(context.Background(), "P", peer, func(rc core.Ctx) error {
					<-gate
					return op.follow(rc)
				})
				if got := opParks(t); got != want {
					t.Fatalf("the victim's call parks on a %s, want a %s", got, want)
				}
				cancel()

				v := <-victimOut
				var re *core.RoleError
				if !errors.As(v.err, &re) || re.Role != victim || !errors.Is(v.err, context.Canceled) || v.res.Performance != 1 {
					t.Fatalf("the victim's Enroll returned perf %d, %v; want a *RoleError of victim wrapping context.Canceled in performance 1", v.res.Performance, v.err)
				}
				if spareOut != nil {
					if s := <-spareOut; !errors.Is(s.err, context.Canceled) || s.res.Performance != 0 {
						t.Fatalf("the second offer returned perf %d, %v; want withdrawn with context.Canceled", s.res.Performance, s.err)
					}
				}
				close(gate)
				p := <-peerOut
				var ae *core.AbortError
				if !errors.As(p.err, &re) || re.Role != peer || !errors.Is(p.err, core.ErrRoleFinished) ||
					!strings.Contains(p.err.Error(), victim.String()) || errors.As(p.err, &ae) {
					t.Fatalf("the peer returned %v; want a *RoleError wrapping ErrRoleFinished that names %s, and no abort", p.err, victim)
				}

				// Each body records its start as it runs, in either order; the
				// victim finishes first, the peer's gate opening after the
				// victim's Enroll returned, and the peer's finish ends the
				// performance. No send, receive or abort is recorded.
				var events, starts []string
				for _, e := range log.Filter(func(e trace.Event) bool { return e.Performance == 1 }) {
					switch e.Kind {
					case trace.KindStart:
						starts = append(starts, e.Role.String())
					case trace.KindPerfStart, trace.KindPerfEnd:
						events = append(events, e.Kind.String())
					default:
						events = append(events, e.Kind.String()+" "+e.Role.String())
					}
				}
				wantEvents := "perf-start, finish victim, release victim, finish peer, perf-end, release peer"
				if got := strings.Join(events, ", "); got != wantEvents || len(starts) != 2 || starts[0] == starts[1] {
					t.Fatalf("performance 1's trace: starts %v, then\n got %s\nwant %s", starts, got, wantEvents)
				}

				nv := enroll(context.Background(), "V3", victim, op.park)
				np := enroll(context.Background(), "P2", peer, op.follow)
				for _, o := range []enrollOutcome{<-nv, <-np} {
					if o.err != nil || o.res.Performance != 2 {
						t.Fatalf("the next cast's %s returned perf %d, %v", o.role, o.res.Performance, o.err)
					}
				}
			})
		}
	}
}
