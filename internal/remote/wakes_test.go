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
// broadcast, checked from outside: one stream worker is dispatched per
// enrollment — at its assignment, not at its ENROLL — and once the recipients'
// bodies have returned and they are held for delayed termination, no
// goroutine of the process waits inside the core while the host still counts
// every one of them, ENROLL to COMPLETE. The sender plays in process and keeps
// the performance open until the test has looked.
func TestHeldRemoteRolesHaveNoWorker(t *testing.T) {
	const n = 8
	in := core.NewInstance(patterns.StarBroadcast(n))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	defer enr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for round := 1; round <= 2; round++ {
		hold := make(chan struct{})
		done := make(chan error, n+1)
		for i := 1; i <= n; i++ {
			go func() {
				_, err := enr.Enroll(ctx, core.Enrollment{
					PID: ids.PID(fmt.Sprintf("R%d", i)), Role: ids.Member(patterns.RoleRecipient, i),
					Body: recipientBody(i),
				})
				done <- err
			}()
		}
		go func() {
			_, err := in.Enroll(ctx, core.Enrollment{
				PID: "S", Role: ids.Role(patterns.RoleSender), Args: []any{round},
				Body: func(rc core.Ctx) error {
					err := senderBody(n)(rc)
					<-hold
					return err
				},
			})
			done <- err
		}()

		for deadline := time.Now().Add(20 * time.Second); h.Stats().ActiveStreams != n || countStacks("remote.(*bridge).run") != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: recipients never all held: %+v", round, h.Stats())
			}
		}
		if got := countStacks("core.await"); got != 0 {
			t.Fatalf("round %d: %d goroutines wait inside the core with every recipient held", round, got)
		}
		if st := h.Stats(); st.ActiveStreams != n || st.Enrolling != n {
			t.Fatalf("round %d, held: %d streams, %d enrolling; want %d of each", round, st.ActiveStreams, st.Enrolling, n)
		}
		if got := h.Dispatched(); got != uint64(round*n) {
			t.Fatalf("round %d: %d stream workers dispatched for %d enrollments", round, got, round*n)
		}
		close(hold)
		for i := 0; i <= n; i++ {
			if err := <-done; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
