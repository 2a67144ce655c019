package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// residents is the cast BenchmarkStarWaits keeps enrolled: as many
// recipients as Figure 3's star in the `local_star` workload has.
const residents = 24

// idleStar is the shape of Figure 3's broadcast — a sender and n recipients,
// delayed initiation and termination — with roles that do nothing unless an
// enrollment brings a body of its own.
func idleStar(n int) core.Definition {
	nop := func(core.Ctx) error { return nil }
	return core.NewScript("star").Role("sender", nop).Family("recipient", n, nop).
		Initiation(core.DelayedInitiation).Termination(core.DelayedTermination).
		MustBuild()
}

// broadcast is Figure 3's star with its bodies: the sender sends one value to
// every recipient in one SendAll, and each recipient receives it.
func broadcast(n int) core.Definition {
	recipients := make([]ids.RoleRef, n)
	for i := range recipients {
		recipients[i] = ids.Member("recipient", i+1)
	}
	return core.NewScript("star").
		Role("sender", func(rc core.Ctx) error { return rc.SendAll(recipients, 1) }).
		Family("recipient", n, func(rc core.Ctx) error { _, err := rc.Recv(ids.Role("sender")); return err }).
		Initiation(core.DelayedInitiation).Termination(core.DelayedTermination).
		MustBuild()
}

// BenchmarkStarWaits performs one star broadcast per iteration, the sender
// in the foreground and 24 recipients resident, under three kinds of context:
// one that cannot end, shared by every enrollment; one shared one that can;
// and one of its own for each Enroll call, cancelled when the call returns,
// as a server's per-request context is. Under a shared context an enroller
// parks on its wake channel alone, and each role's op on its outcome alone —
// the instance's watch, not the wait, looks after the context, once for all
// 25 — so the first two arms should cost about the same (an op's wait under
// the second takes the watch's mutex twice), and CI holds the second within
// 1.15x of the first. Under contexts of their own the enrollers and
// the ops select on their channel and ctx.Done(), as every wait once did: the
// third arm is the price of a context the watch does not share. Close ends
// the residents.
func BenchmarkStarWaits(b *testing.B) {
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	shared := func(ctx context.Context) func() (context.Context, context.CancelFunc) {
		return func() (context.Context, context.CancelFunc) { return ctx, func() {} }
	}
	for _, arm := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc) // one Enroll call's
	}{
		{"ctx=background", shared(context.Background())},
		{"ctx=cancelable", shared(cancelable)},
		{"ctx=per-enrollment", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			in := core.NewInstance(broadcast(residents))
			var wg sync.WaitGroup
			for i := 1; i <= residents; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := core.Enrollment{PID: ids.PID(fmt.Sprintf("R%d", i)), Role: ids.Member("recipient", i)}
					for {
						ctx, cancel := arm.ctx()
						_, err := in.Enroll(ctx, e)
						cancel()
						if err != nil {
							return
						}
					}
				}()
			}
			send := core.Enrollment{PID: "S", Role: ids.Role("sender")}
			b.ResetTimer()
			for range b.N {
				ctx, cancel := arm.ctx()
				_, err := in.Enroll(ctx, send)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			in.Close()
			wg.Wait()
		})
	}
}
