package remote_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/remote"
)

// slotDef builds a single-role script: every enrollment is a complete
// performance on its own, so independent Enrolls land and finish without a
// co-performer. The local body must never run — remote enrollments carry
// their own.
func slotDef() core.Definition {
	return core.NewScript("slot").
		Role("only", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		MustBuild()
}

// slotFleet starts n slot-serving hosts, announces each to a fresh static
// registry with a live load digest, and returns the registry plus the
// per-host instances (for attributing completed performances).
func slotFleet(t *testing.T, n int) (*registry.Static, []*core.Instance, []string) {
	t.Helper()
	reg := registry.NewStatic()
	t.Cleanup(func() { reg.Close() })
	instances := make([]*core.Instance, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		in := core.NewInstance(slotDef())
		t.Cleanup(func() { in.Close() })
		h, addr := startHost(t, in, remote.HostConfig{})
		stop := reg.Announce(
			registry.Endpoint{Addr: addr, Scripts: []string{"slot"}},
			func() registry.Load {
				st := h.Stats()
				return registry.Load{
					Conns:         st.Conns,
					Enrolling:     st.Enrolling,
					PendingOffers: in.PendingOffers(),
				}
			})
		t.Cleanup(stop)
		instances[i] = in
		addrs[i] = addr
	}
	return reg, instances, addrs
}

func TestRegistryEnrollerBalancesAcrossHosts(t *testing.T) {
	reg, instances, _ := slotFleet(t, 2)
	enr := remote.NewEnrollerRegistry(reg, remote.EnrollerConfig{
		Script:   "slot",
		Balancer: remote.NewRoundRobin(),
		Retry:    remote.RetryPolicy{Seed: 7},
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body := func(rc core.Ctx) error { return nil }
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if _, err := enr.Enroll(ctx, core.Enrollment{
			PID:  ids.PID(fmt.Sprintf("C%d", i)),
			Role: ids.Role("only"),
			Body: body,
		}); err != nil {
			t.Fatalf("enroll %d: %v", i, err)
		}
	}
	p0, p1 := instances[0].Performances(), instances[1].Performances()
	if p0+p1 != rounds {
		t.Fatalf("performances split %d/%d, want %d total", p0, p1, rounds)
	}
	if p0 == 0 || p1 == 0 {
		t.Fatalf("round-robin left a host idle: split %d/%d", p0, p1)
	}
}

func TestEnrollerFollowsRegistryMembership(t *testing.T) {
	inA := core.NewInstance(slotDef())
	defer inA.Close()
	inB := core.NewInstance(slotDef())
	defer inB.Close()
	_, addrA := startHost(t, inA, remote.HostConfig{})
	_, addrB := startHost(t, inB, remote.HostConfig{})

	reg := registry.NewStatic()
	defer reg.Close()
	stopA := reg.Announce(registry.Endpoint{Addr: addrA, Scripts: []string{"slot"}}, nil)

	enr := remote.NewEnrollerRegistry(reg, remote.EnrollerConfig{
		Script: "slot",
		Retry:  remote.RetryPolicy{MaxAttempts: 1},
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body := func(rc core.Ctx) error { return nil }
	if _, err := enr.Enroll(ctx, core.Enrollment{PID: "p1", Role: ids.Role("only"), Body: body}); err != nil {
		t.Fatalf("enroll at A: %v", err)
	}
	if got := inA.Performances(); got != 1 {
		t.Fatalf("A performed %d, want 1", got)
	}

	// A leaves, B joins: the enroller must follow the subscription.
	stopB := reg.Announce(registry.Endpoint{Addr: addrB, Scripts: []string{"slot"}}, nil)
	stopA()
	waitCond(t, "host set to become [B]", func() bool {
		hosts := enr.Hosts()
		return len(hosts) == 1 && hosts[0].Addr == addrB
	})
	if _, err := enr.Enroll(ctx, core.Enrollment{PID: "p2", Role: ids.Role("only"), Body: body}); err != nil {
		t.Fatalf("enroll at B: %v", err)
	}
	if got := inB.Performances(); got != 1 {
		t.Fatalf("B performed %d, want 1", got)
	}

	// An empty membership is a retryable condition, not a terminal one —
	// hosts may be about to announce.
	stopB()
	waitCond(t, "host set to empty", func() bool { return len(enr.Hosts()) == 0 })
	_, err := enr.Enroll(ctx, core.Enrollment{PID: "p3", Role: ids.Role("only"), Body: body})
	if !errors.Is(err, remote.ErrNoHosts) {
		t.Fatalf("enroll with no hosts: %v, want ErrNoHosts", err)
	}
	if !remote.Retryable(err) {
		t.Fatal("ErrNoHosts must be retryable (membership is in flux)")
	}
}

func TestMembershipRemovalDrainsInFlightEnrollments(t *testing.T) {
	// A draining host withdraws its announcement BEFORE waiting out its
	// in-flight performances, so a membership removal must retire the
	// host's pooled connections — not kill them: the enrollment already
	// admitted there has to finish. (A gossip flap removing a healthy host
	// relies on the same property.)
	in := core.NewInstance(slotDef())
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	reg := registry.NewStatic()
	defer reg.Close()
	stop := reg.Announce(registry.Endpoint{Addr: addr, Scripts: []string{"slot"}}, nil)

	enr := remote.NewEnrollerRegistry(reg, remote.EnrollerConfig{Script: "slot"})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID:  "p1",
			Role: ids.Role("only"),
			Body: func(rc core.Ctx) error {
				close(started)
				<-gate
				return nil
			},
		})
		done <- err
	}()
	<-started

	// The host leaves the registry view mid-performance.
	stop()
	waitCond(t, "host set to empty", func() bool { return len(enr.Hosts()) == 0 })
	// Give the removal time to (wrongly) tear down the connection before
	// the body is released.
	time.Sleep(50 * time.Millisecond)

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight enrollment killed by membership removal: %v", err)
	}

	// New work must not route to the departed host.
	if _, err := enr.Enroll(ctx, core.Enrollment{
		PID: "p2", Role: ids.Role("only"), Body: func(rc core.Ctx) error { return nil },
	}); !errors.Is(err, remote.ErrNoHosts) {
		t.Fatalf("enroll after removal: %v, want ErrNoHosts", err)
	}
}

// countingTarget counts enrollment offers so performances can be attributed
// to the host that admitted them.
type countingTarget struct {
	*core.Instance
	offers atomic.Int64
}

func (c *countingTarget) Offer(ctx context.Context, e core.Enrollment, h core.Handoff) (core.Offered, error) {
	c.offers.Add(1)
	return c.Instance.Offer(ctx, e, h)
}

func TestEnrollBlocCastAffinity(t *testing.T) {
	// Two hosts serve the same star script. A bloc's members bind mutual
	// With constraints, so a bloc split across hosts could never rendezvous:
	// every completed bloc is proof of cast affinity. The per-target offer
	// counts confirm whole multiples of the cast size landed on each host.
	def := patterns.StarBroadcast(2)
	reg := registry.NewStatic()
	defer reg.Close()
	targets := make([]*countingTarget, 2)
	for i := range targets {
		in := core.NewInstance(def)
		t.Cleanup(func() { in.Close() })
		targets[i] = &countingTarget{Instance: in}
		_, addr := startHost(t, targets[i], remote.HostConfig{})
		stop := reg.Announce(registry.Endpoint{Addr: addr, Scripts: []string{def.Name()}}, nil)
		t.Cleanup(stop)
	}

	enr := remote.NewEnrollerRegistry(reg, remote.EnrollerConfig{
		Script:   def.Name(),
		Balancer: remote.NewRoundRobin(),
		Retry:    remote.RetryPolicy{Seed: 11},
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const rounds = 8
	for r := 0; r < rounds; r++ {
		msg := fmt.Sprintf("round-%d", r)
		members := []core.Enrollment{
			{
				PID:  ids.PID(fmt.Sprintf("announcer-%d", r)),
				Role: ids.Role(patterns.RoleSender),
				Args: []any{msg},
				Body: senderBody(2),
			},
		}
		for i := 1; i <= 2; i++ {
			members = append(members, core.Enrollment{
				PID:  ids.PID(fmt.Sprintf("listener-%d-%d", r, i)),
				Role: ids.Member(patterns.RoleRecipient, i),
				Body: recipientBody(i),
			})
		}
		res, err := enr.EnrollBloc(ctx, members)
		if err != nil {
			t.Fatalf("bloc %d: %v", r, err)
		}
		if len(res) != len(members) {
			t.Fatalf("bloc %d: %d results, want %d", r, len(res), len(members))
		}
	}

	c0, c1 := targets[0].offers.Load(), targets[1].offers.Load()
	if c0+c1 != int64(rounds*3) {
		t.Fatalf("offer counts %d+%d, want %d", c0, c1, rounds*3)
	}
	if c0%3 != 0 || c1%3 != 0 {
		t.Fatalf("a bloc split across hosts: offers %d/%d not multiples of the cast size", c0, c1)
	}
	if c0 == 0 || c1 == 0 {
		t.Fatalf("round-robin left a host without blocs: %d/%d", c0, c1)
	}
}

func TestEnrollBlocRetriesAtAnotherHostWhenShed(t *testing.T) {
	// Host A admits one enrollment at a time, so a three-member bloc always
	// sheds there; host B is uncapped. The bloc must withdraw its partial
	// offers at A and re-offer the whole cast at B.
	def := patterns.StarBroadcast(2)
	inA := core.NewInstance(def)
	defer inA.Close()
	inB := core.NewInstance(def)
	defer inB.Close()
	ctA := &countingTarget{Instance: inA}
	ctB := &countingTarget{Instance: inB}
	_, addrA := startHost(t, ctA, remote.HostConfig{MaxEnrollments: 1, RetryAfter: time.Millisecond})
	_, addrB := startHost(t, ctB, remote.HostConfig{})

	// Static multi-host enroller with failover order [A, B]: attempt 0
	// always picks A first, so the bloc provably sheds before it reroutes.
	enr := remote.NewEnrollerMulti([]string{addrA, addrB}, remote.EnrollerConfig{
		Script: def.Name(),
		Retry: remote.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Seed:        42,
		},
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	members := []core.Enrollment{
		{PID: "announcer", Role: ids.Role(patterns.RoleSender), Args: []any{"hi"}, Body: senderBody(2)},
		{PID: "listener-1", Role: ids.Member(patterns.RoleRecipient, 1), Body: recipientBody(1)},
		{PID: "listener-2", Role: ids.Member(patterns.RoleRecipient, 2), Body: recipientBody(2)},
	}
	res, err := enr.EnrollBloc(ctx, members)
	if err != nil {
		t.Fatalf("bloc: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results, want 3", len(res))
	}
	if got := inB.Performances(); got != 1 {
		t.Fatalf("B performed %d, want 1 (bloc rerouted there)", got)
	}
	if got := inA.Performances(); got != 0 {
		t.Fatalf("A performed %d, want 0 (capped below the cast size)", got)
	}
}
