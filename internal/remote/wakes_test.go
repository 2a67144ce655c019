package remote_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
)

// goroutineStacks returns every goroutine's stack, one string each.
func goroutineStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// countStacks counts the goroutines whose stack names fn.
func countStacks(fn string) int {
	n := 0
	for _, s := range goroutineStacks() {
		if strings.Contains(s, fn) {
			n++
		}
	}
	return n
}

// TestHeldRemoteRolesHaveNoWorker is the host's wake ledger for a remote star
// broadcast, checked from outside, on the default protocol.
func TestHeldRemoteRolesHaveNoWorker(t *testing.T) { starLedger(t, 0) }

// TestWakesOfALockstepStar is the same ledger over v1 lock-step, the host
// pinned to it: one connection, and one session, per recipient.
func TestWakesOfALockstepStar(t *testing.T) { starLedger(t, 1) }

// starLedger runs two rounds of a star broadcast to n remote recipients and
// checks who is woken: a stream worker is dispatched once per op — n per
// round, one RECV each — and never at an assignment or a BODY-DONE; between a
// recipient's OFFER-ACK and its first op no goroutine serves its stream (in
// the first round no worker exists at all); once the recipients' bodies have
// returned and they are held, no goroutine serves a stream or waits inside
// the core; and the host counts every recipient, ENROLL to COMPLETE. The
// sender plays in process and keeps the performance open until the test has
// looked. Goroutines are counted above what the process held before the
// host started, which other tests may have left winding down.
func starLedger(t *testing.T, proto int) {
	const (
		n      = 8
		worker = "remote.(*hostSession).dispatchLocked.func1"
		serve  = "remote.(*hostSession).serve"
		wait   = "core.(*Instance).wait"
	)
	base := map[string]int{worker: countStacks(worker), serve: countStacks(serve), wait: countStacks(wait)}
	above := func(fn string) int { return countStacks(fn) - base[fn] }
	in := core.NewInstance(patterns.StarBroadcast(n))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{MaxProtocolVersion: proto})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast", MaxProtocolVersion: proto})
	defer enr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	counted := func(when string) {
		t.Helper()
		if st := h.Stats(); st.ActiveStreams != n || st.Enrolling != n {
			t.Fatalf("%s: %d streams, %d enrolling; want %d of each", when, st.ActiveStreams, st.Enrolling, n)
		}
	}

	for round := 1; round <= 2; round++ {
		acked, gate, held, hold := make(chan struct{}, n), make(chan struct{}), make(chan struct{}), make(chan struct{})
		done := make(chan error, n+1)
		for i := 1; i <= n; i++ {
			go func() {
				_, err := enr.Enroll(ctx, core.Enrollment{
					PID: ids.PID(fmt.Sprintf("R%d", i)), Role: ids.Member(patterns.RoleRecipient, i),
					Body: func(rc core.Ctx) error {
						acked <- struct{}{} // the body runs once OFFER-ACK is in
						<-gate
						return recipientBody(i)(rc)
					},
				})
				done <- err
			}()
		}
		go func() {
			_, err := in.Enroll(ctx, core.Enrollment{
				PID: "S", Role: ids.Role(patterns.RoleSender), Args: []any{round},
				Body: func(rc core.Ctx) error {
					err := senderBody(n)(rc)
					for i := 1; i <= n; i++ { // each recipient's BODY-DONE ended its role
						for !rc.Terminated(ids.Member(patterns.RoleRecipient, i)) {
							time.Sleep(time.Millisecond)
						}
					}
					close(held)
					<-hold
					return err
				},
			})
			done <- err
		}()

		for range n {
			<-acked
		}
		if got := above(serve); got > 0 {
			t.Fatalf("round %d: %d goroutines serve a stream before any op was sent", round, got)
		}
		if got := above(worker); round == 1 && got > 0 {
			t.Fatalf("round 1: %d stream workers exist before any op was sent", got)
		}
		if got, want := h.Dispatched(), uint64((round-1)*n); got != want {
			t.Fatalf("round %d, assigned: %d dispatches, want %d: none at assignment", round, got, want)
		}
		counted(fmt.Sprintf("round %d, assigned", round))
		close(gate)

		<-held
		for deadline := time.Now().Add(10 * time.Second); above(serve) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: a worker still serves a stream with every recipient held", round)
			}
		}
		if countStacks(worker) == 0 { // they went back to the pool, where the first round looked
			t.Fatalf("round %d: no idle stream worker after %d ops: the stack name looked for is stale", round, n)
		}
		if got := above(wait); got > 0 {
			t.Fatalf("round %d: %d goroutines wait inside the core with every recipient held", round, got)
		}
		if got, want := h.Dispatched(), uint64(round*n); got != want {
			t.Fatalf("round %d, held: %d dispatches, want %d: one per RECV, none at BODY-DONE", round, got, want)
		}
		counted(fmt.Sprintf("round %d, held", round))
		close(hold)
		for i := 0; i <= n; i++ {
			if err := <-done; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
