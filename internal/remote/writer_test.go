package remote_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/wire"
)

// watchdog panics with every goroutine's stack if the test has not called
// the returned stop within d. A test that can hang in its own cleanup (a
// Close behind a blocked write) cannot rely on the test timeout to say where.
func watchdog(t *testing.T, d time.Duration) (stop func()) {
	name := t.Name()
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 8<<20)
		buf = buf[:runtime.Stack(buf, true)]
		panic(fmt.Sprintf("%s: still running after %v\n\n%s", name, d, buf))
	})
	return func() { timer.Stop() }
}

// serveUnclosed starts a host on target with no cleanup of its own, for a
// test whose watchdog covers the Close.
func serveUnclosed(t *testing.T, target remote.Target, cfg remote.HostConfig) (*remote.Host, string) {
	t.Helper()
	h := remote.NewHost(target, cfg)
	if err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go h.Serve()
	return h, h.Addr().String()
}

// TestLargeValuesOnOneConnection: a star whose nine roles share one
// connection, with values of several MiB crossing it both ways — the
// sender's SEND-ALL, each recipient's OP-RESULT, and each recipient's
// BODY-DONE carrying the value back — completes round after round. When a
// read loop could write, the host's reader blocked writing an OP-RESULT to a
// client whose reader waited for the write lock of a body writing its
// BODY-DONE to the host: nobody read, and not even Close returned.
func TestLargeValuesOnOneConnection(t *testing.T) {
	defer watchdog(t, 90*time.Second)()
	const n = 8
	in := core.NewInstance(patterns.StarBroadcast(n))
	h, addr := serveUnclosed(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	for _, size := range []int{4 << 20, 6 << 20} {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		val := strings.Repeat("v", size)
		for round := 1; round <= 4; round++ {
			var wg sync.WaitGroup
			errs := make(chan error, n+1)
			for i := 1; i <= n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := enr.Enroll(ctx, core.Enrollment{
						PID:  ids.PID(fmt.Sprintf("recipient-%d", i)),
						Role: ids.Member(patterns.RoleRecipient, i),
						Body: recipientBody(i),
					})
					if err == nil && (len(res.Values) != 1 || res.Values[0] != val) {
						err = fmt.Errorf("result of %d values, not the %d-byte value", len(res.Values), size)
					}
					if err != nil {
						errs <- fmt.Errorf("recipient %d: %w", i, err)
					}
				}(i)
			}
			if _, err := enr.Enroll(ctx, core.Enrollment{
				PID:  "sender",
				Role: ids.Role(patterns.RoleSender),
				Args: []any{val},
				Body: senderBody(n),
			}); err != nil {
				errs <- fmt.Errorf("sender: %w", err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Errorf("%d MiB, round %d: %v", size>>20, round, err)
			}
			if t.Failed() {
				break
			}
		}
		cancel()
	}
	enr.Close()
	h.Close()
	in.Close()
}

// TestStalledReaderDoesNotStallAnotherConn: client A enrolls a recipient,
// posts its RECV and stops reading, so the 7 MiB value it is owed cannot
// leave the host. Client B's sender commits that RECV on B's connection's
// reader, which must not wait on A's socket: B's enrollments return — done,
// or aborted with A's role as culprit once A's heartbeat runs out — instead
// of B's reader stalling past its own heartbeat behind a client it never
// talks to.
func TestStalledReaderDoesNotStallAnotherConn(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	in := core.NewInstance(patterns.StarBroadcast(2))
	h, addr := serveUnclosed(t, in, remote.HostConfig{HeartbeatTimeout: 2 * time.Second})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := nc.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatalf("SetReadBuffer: %v", err)
	}
	a := wire.NewConn(nc)
	if _, err := wire.ClientHandshakeV(a, "star_broadcast", 2); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	one := ids.Member(patterns.RoleRecipient, 1)
	if err := a.WriteFrame(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "A", Role: wire.EncodeRoleRef(one)}); err != nil {
		t.Fatalf("ENROLL: %v", err)
	}

	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	posted := make(chan struct{})
	var start time.Time
	errs := make(chan error, 2)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID:  "B-sender",
			Role: ids.Role(patterns.RoleSender),
			Args: []any{strings.Repeat("v", 7<<20)},
			Body: func(rc core.Ctx) error {
				<-posted
				time.Sleep(50 * time.Millisecond) // A's RECV is in the fabric before the SEND-ALL
				start = time.Now()
				return senderBody(2)(rc)
			},
		})
		errs <- err
	}()
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID:  "B-recipient",
			Role: ids.Member(patterns.RoleRecipient, 2),
			Body: recipientBody(2),
		})
		errs <- err
	}()

	a.SetReadTimeout(10 * time.Second)
	for {
		typ, _, _, _, err := a.ReadFrame()
		if err != nil {
			t.Fatalf("A awaiting its OFFER-ACK: %v", err)
		}
		if typ == wire.MsgOfferAck {
			break
		}
	}
	if err := a.WriteFrame(wire.MsgRecv, 1, 1, &wire.Recv{From: patterns.RoleSender}); err != nil {
		t.Fatalf("RECV: %v", err)
	}
	close(posted) // and A reads nothing more

	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			var ae *core.AbortError
			if err != nil && !(errors.As(err, &ae) && ae.Culprit == one) {
				t.Errorf("B's enrollment: %v, want done or aborted with %v as culprit", err, one)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("B's enrollments did not return: B's reader is stalled behind A")
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("B's enrollments returned %v after the SEND-ALL, want within 5s", d)
	}
	enr.Close()
	a.Close()
	h.Close()
	in.Close()
}
