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
// checks who is woken: no goroutine ever serves a stream's op — each
// recipient's RECV is posted by the connection's reader and committed by the
// sender, whose goroutine writes the OP-RESULT — neither at an assignment,
// nor between a recipient's OFFER-ACK and its first op, nor while the ops
// are in flight, nor at a BODY-DONE; once the recipients' bodies have
// returned and they are held, no goroutine waits inside the core; and the
// host counts every recipient, ENROLL to COMPLETE. The sender plays in
// process and keeps the performance open until the test has looked.
// Goroutines are counted above what the process held before the host
// started, which other tests may have left winding down.
func starLedger(t *testing.T, proto int) {
	const (
		n    = 8
		wait = "core.(*Instance).wait"
	)
	base := countStacks(wait)
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
		if got := remote.StreamServers(); got > 0 {
			t.Fatalf("round %d: %d goroutines serve a stream before any op was sent", round, got)
		}
		counted(fmt.Sprintf("round %d, assigned", round))
		close(gate)
		if most := sampleStreamServers(held); most > 0 {
			t.Fatalf("round %d: %d goroutines served a stream while its ops were in flight", round, most)
		}
		if got := remote.StreamServers(); got > 0 {
			t.Fatalf("round %d: %d goroutines serve a stream with every recipient held", round, got)
		}
		if got := countStacks(wait) - base; got > 0 {
			t.Fatalf("round %d: %d goroutines wait inside the core with every recipient held", round, got)
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

// sampleStreamServers looks at every goroutine's stack until stop is closed
// and returns the most goroutines one look found serving a stream.
func sampleStreamServers(stop <-chan struct{}) int {
	most := 0
	for {
		most = max(most, remote.StreamServers())
		select {
		case <-stop:
			return most
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// TestBufferLedger is the host's wake ledger for the lock-step exchange of
// the bounded buffer, every role remote on one connection: during the
// exchange the session's only goroutines are its reader and its flusher. The
// reader posts every op, and the op that commits it — another role's, posted
// by the same reader — writes its OP-RESULT, so no goroutine serves a stream
// and none blocks in the fabric.
func TestBufferLedger(t *testing.T) {
	const items = 64
	const (
		reader   = "remote.(*Host).serveConn"
		inFabric = "rendezvous.(*Fabric).wait"
	)
	in := core.NewInstance(patterns.BoundedBuffer(2))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "bounded_buffer"})
	defer enr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	base := map[string]int{reader: countStacks(reader), inFabric: countStacks(inFabric)}
	args := make([]any, items)
	for i := range args {
		args[i] = i
	}
	producer, buffer, consumer := ids.Role(patterns.RoleProducer), ids.Role(patterns.RoleBuffer), ids.Role(patterns.RoleConsumer)
	roles := []core.Enrollment{
		{PID: "P", Role: producer, Args: args, Body: func(rc core.Ctx) error {
			for i := range rc.NumArgs() {
				if err := rc.SendTag(buffer, "item", rc.Arg(i)); err != nil {
					return err
				}
			}
			return rc.SendTag(buffer, "eof", nil)
		}},
		{PID: "B", Role: buffer, Body: func(rc core.Ctx) error { // capacity 2
			var queue []any
			for done := false; !done || len(queue) > 0; {
				var head any
				if len(queue) > 0 {
					head = queue[0]
				}
				sel, err := rc.Select(
					core.RecvTagFrom(producer, "item").When(!done && len(queue) < 2),
					core.RecvTagFrom(producer, "eof").When(!done),
					core.SendTagTo(consumer, "item", head).When(len(queue) > 0),
				)
				switch {
				case err != nil:
					return err
				case sel.Index == 0:
					queue = append(queue, sel.Val)
				case sel.Index == 1:
					done = true
				default:
					queue = queue[1:]
				}
			}
			return rc.SendTag(consumer, "eof", nil)
		}},
		{PID: "C", Role: consumer, Body: func(rc core.Ctx) error {
			var got []any
			for {
				sel, err := rc.Select(core.RecvTagFrom(buffer, "item"), core.RecvTagFrom(buffer, "eof"))
				if err != nil || sel.Index == 1 {
					rc.Return(got...)
					return err
				}
				got = append(got, sel.Val)
			}
		}},
	}
	done := make(chan core.Result, len(roles))
	errs := make(chan error, len(roles))
	for _, e := range roles {
		go func() {
			res, err := enr.Enroll(ctx, e)
			errs <- err
			done <- res
		}()
	}
	stop := make(chan struct{})
	var most struct{ servers, readers, blocked int }
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			most.servers = max(most.servers, remote.StreamServers())
			most.readers = max(most.readers, countStacks(reader)-base[reader])
			most.blocked = max(most.blocked, countStacks(inFabric)-base[inFabric])
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	var got []any
	for range roles {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if res := <-done; res.Role == ids.Role(patterns.RoleConsumer) {
			got = res.Values
		}
	}
	close(stop)
	<-sampled
	if len(got) != items {
		t.Fatalf("the consumer got %d items, want %d", len(got), items)
	}
	if most.servers > 0 || most.blocked > 0 || most.readers > 1 {
		t.Fatalf("during the exchange: %d goroutines served a stream, %d blocked in the fabric, %d readers; want 0, 0 and 1",
			most.servers, most.blocked, most.readers)
	}
}
