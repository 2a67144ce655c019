package remote_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
)

// runStarOnce drives one full star_broadcast performance (1 sender, n
// recipients) through enr and reports the first error.
func runStarOnce(ctx context.Context, enr *remote.Enroller, n int, msg string) error {
	errCh := make(chan error, n+1)
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := enr.Enroll(ctx, core.Enrollment{
				PID:  ids.PID(fmt.Sprintf("listener-%d", i)),
				Role: ids.Member(patterns.RoleRecipient, i),
				Body: recipientBody(i),
			})
			if err != nil {
				errCh <- fmt.Errorf("listener-%d: %w", i, err)
				return
			}
			if len(res.Values) != 1 || res.Values[0] != msg {
				errCh <- fmt.Errorf("listener-%d: values = %v, want [%q]", i, res.Values, msg)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID:  "announcer",
			Role: ids.Role(patterns.RoleSender),
			Args: []any{msg},
			Body: senderBody(n),
		})
		if err != nil {
			errCh <- fmt.Errorf("announcer: %w", err)
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// TestMuxSharesOneConnection proves connection multiplexing: four
// concurrent enrollments (a sender and three recipients) ride a single v2
// connection, where the v1 transport would dial one conn per enrollment.
func TestMuxSharesOneConnection(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(3))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 2; round++ {
		if err := runStarOnce(ctx, enr, 3, fmt.Sprintf("round-%d", round)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Conns; got != 1 {
		t.Fatalf("host served %d conns for 8 enrollments, want 1 multiplexed conn", got)
	}
}

// TestMuxFallsBackToV1Host checks version negotiation against a host
// pinned to v1 (an un-upgraded deployment): the enroller's first dial
// discovers v1, falls back to the lock-step transport, and later
// enrollments reuse the cached answer without re-probing.
func TestMuxFallsBackToV1Host(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(2))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{MaxProtocolVersion: 1})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 2; round++ {
		if err := runStarOnce(ctx, enr, 2, fmt.Sprintf("v1-%d", round)); err != nil {
			t.Fatal(err)
		}
	}
	// v1 gives every concurrent enrollment its own connection.
	if got := h.Stats().Conns; got < 2 {
		t.Fatalf("host conns = %d after v1 fallback, want >= 2 dedicated conns", got)
	}
}

// TestMuxV1PinnedClient checks the other interop direction: an enroller
// pinned to v1 (an un-upgraded client) against a v2-capable host.
func TestMuxV1PinnedClient(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(2))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		Script:             "star_broadcast",
		MaxProtocolVersion: 1,
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := runStarOnce(ctx, enr, 2, "pinned"); err != nil {
		t.Fatal(err)
	}
}

// TestMuxDedicatedConnMode runs v2 with MaxStreamsPerConn: 1 — the v2
// codec without multiplexing (perfbench's lock-step comparison mode).
func TestMuxDedicatedConnMode(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(2))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		Script:            "star_broadcast",
		MaxStreamsPerConn: 1,
	})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := runStarOnce(ctx, enr, 2, "dedicated"); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().Conns; got < 2 {
		t.Fatalf("host conns = %d with MaxStreamsPerConn=1, want >= 2", got)
	}
}

// TestMuxWithdrawRetiresIdleConn: a v2 enrollment withdrawn before
// assignment sends CANCEL on its shared connection. When it was the
// connection's last user the conn must be retired, not pooled — otherwise
// a withdrawn enroller would pin a host connection slot forever (v1 frees
// the slot by severing its dedicated conn).
func TestMuxWithdrawRetiresIdleConn(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{})
	defer enr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "R", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: recipientBody(1),
		})
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for in.PendingOffers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for in.PendingOffers() != 0 || h.Stats().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after withdrawal: pending = %d, conns = %d; want 0, 0",
				in.PendingOffers(), h.Stats().Conns)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxWithdrawKeepsBusyConn is the counterpart: withdrawing one
// enrollment must NOT retire a connection other enrollments still use.
func TestMuxWithdrawKeepsBusyConn(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	h, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{})
	defer enr.Close()

	// A recipient waits (pending offer) while a second enrollment for the
	// same member is withdrawn; the survivor's performance must still run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recvErr := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "R1", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: recipientBody(1),
		})
		recvErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for in.PendingOffers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	wctx, wcancel := context.WithCancel(ctx)
	withdrawnErr := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(wctx, core.Enrollment{
			PID: "R1b", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: recipientBody(1),
		})
		withdrawnErr <- err
	}()
	for in.PendingOffers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second offer never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	wcancel()
	if err := <-withdrawnErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("withdrawn err = %v, want context.Canceled", err)
	}
	if got := h.Stats().Conns; got != 1 {
		t.Fatalf("conns = %d after withdrawing one of two streams, want 1", got)
	}

	// The surviving recipient still completes once the sender shows up.
	if _, err := enr.Enroll(ctx, core.Enrollment{
		PID:  "announcer",
		Role: ids.Role(patterns.RoleSender),
		Args: []any{"still-alive"},
		Body: senderBody(1),
	}); err != nil {
		t.Fatalf("announcer: %v", err)
	}
	if err := <-recvErr; err != nil {
		t.Fatalf("surviving recipient: %v", err)
	}
}

// TestMuxPipelinedAllocs is the allocation regression guard for the v2
// hot path: a steady-state Send/Recv exchange (client encode, host decode,
// rendezvous, result frame back), counting every allocation in the process
// across both enrollment bodies, the host, and the core engine. It measures
// 0 objects: the request and result structs are the stream's, the decoded
// messages the connection's, tags and names interned, the op crosses to the
// bridge by value, the frame is encoded in the write buffer (8 before that; 19
// before op-result channels, role names and the frame header buffer were
// reused). The gate leaves room for a boxed value.
func TestMuxPipelinedAllocs(t *testing.T) {
	testOpAllocs(t, 2, func(rc core.Ctx, to ids.RoleRef, v any) error { return rc.Send(to, v) })
}

// TestRemoteSelectAllocs is the same gate for a guarded alternative: one warm
// three-branch Select round trip whose send branch commits. It measures 2
// objects, both the host's and both per frame by design: the decoded branch
// slice, which crosses to the bridge by value and so cannot be the
// connection's, and the fabric's alternative (14 before; the client's branch
// slice is its stream's now and the host's core branches its bridge's).
// Gated at that plus two.
func TestRemoteSelectAllocs(t *testing.T) {
	testOpAllocs(t, selectAllocs+2, func(rc core.Ctx, to ids.RoleRef, v any) error {
		_, err := rc.Select(
			core.SendTagTo(to, "", v),
			core.RecvTagFrom(to, "never"),
			core.RecvFromAnyone("nor this"),
		)
		return err
	})
}

// selectAllocs is what TestRemoteSelectAllocs measured when it was written.
const selectAllocs = 2

// TestRemoteSendAllAllocs is the same gate for a vectorized send, host and
// client together: the client's target names and its SEND-ALL request are
// its stream's, and so are the roles the host's bridge decodes them into. It
// measures 2 objects, neither of them the remote path's own: the target list
// the decoder builds (which crosses to the bridge by value, like the branches
// of a SELECT) and the core's endpoint list for the scatter (5 before, with a
// name list, a request and a role list per call). Gated at that plus one, so
// any one of the three coming back fails it.
func TestRemoteSendAllAllocs(t *testing.T) {
	tos := []ids.RoleRef{ids.Member(patterns.RoleRecipient, 1)}
	testOpAllocs(t, sendAllAllocs+1, func(rc core.Ctx, _ ids.RoleRef, v any) error { return rc.SendAll(tos, v) })
}

// sendAllAllocs is what TestRemoteSendAllAllocs measured when it was written.
const sendAllAllocs = 2

// testOpAllocs runs op, which must deliver v to the recipient, on a warm
// stream and fails if one call allocates more than limit objects, both sides
// of the connection counted together.
func testOpAllocs(t *testing.T, limit float64, op func(rc core.Ctx, to ids.RoleRef, v any) error) {
	if testing.Short() {
		t.Skip("alloc counting is noisy under -short CI shards")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	in := core.NewInstance(patterns.StarBroadcast(1))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	defer enr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	recvDone := make(chan error, 1)
	go func() {
		_, err := enr.Enroll(ctx, core.Enrollment{
			PID: "sink", Role: ids.Member(patterns.RoleRecipient, 1),
			Body: func(rc core.Ctx) error {
				for {
					v, err := rc.Recv(ids.Role(patterns.RoleSender))
					if err != nil {
						return err
					}
					if v == "done" {
						return nil
					}
				}
			},
		})
		recvDone <- err
	}()

	var perOp float64
	_, err := enr.Enroll(ctx, core.Enrollment{
		PID:  "pump",
		Role: ids.Role(patterns.RoleSender),
		Args: []any{"alloc-pump"},
		Body: func(rc core.Ctx) error {
			to := ids.Member(patterns.RoleRecipient, 1)
			// Warm the path (conn, stream, first rendezvous) before counting.
			for i := 0; i < 10; i++ {
				if err := op(rc, to, 7); err != nil {
					return err
				}
			}
			perOp = testing.AllocsPerRun(200, func() {
				if err := op(rc, to, 7); err != nil {
					panic(err)
				}
			})
			return rc.Send(to, "done")
		},
	})
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("sink: %v", err)
	}
	if perOp > limit {
		t.Fatalf("one warm v2 op costs %.0f allocs end-to-end, want <= %.0f", perOp, limit)
	}
}

// TestEnrollAllocs gates what one warm enrollment allocates end to end, both
// processes' share counted together: a one-role script whose body does
// nothing, enrolled over loopback on a connection that already carried
// enrollments, so the stream state on both sides is recycled, not built.
// Before stream state was recycled this measured 49 objects, after it 21, 14
// when the cast became an array, and 7 since the messages of both directions,
// the client's Ctx and the host's op hand-off live in the streams: what is
// left is the context.AfterFunc registration and its stop function, and the
// enrollment record of the core. The gate leaves three of headroom.
func TestEnrollAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	nop := func(core.Ctx) error { return nil }
	in := core.NewInstance(core.NewScript("solo").Role("p", nop).MustBuild())
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "solo"})
	defer enr.Close()

	ctx := context.Background()
	e := core.Enrollment{PID: "P", Role: ids.Role("p"), Body: nop}
	got := testing.AllocsPerRun(500, func() {
		if _, err := enr.Enroll(ctx, e); err != nil {
			t.Error(err)
		}
	})
	if got > 10 {
		t.Fatalf("one warm empty-body enrollment allocates %v objects, want <= 10", got)
	}
}
