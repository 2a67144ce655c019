package rendezvous

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// liveIDs is an isLive for TerminateAbsentID that holds addrs, and nothing
// else, live.
func liveIDs(f *Fabric, addrs ...Addr) func(ID) bool {
	live := make([]ID, len(addrs))
	for i, a := range addrs {
		live[i] = f.Endpoint(a)
	}
	return func(id ID) bool { return slices.Contains(live, id) }
}

func TestTerminateAbsentWakesOpsOnDeadTargets(t *testing.T) {
	f := New()
	errCh := make(chan error, 2)
	go func() { errCh <- f.Send(ctxT(t), "A", "ghost", "t", 1) }()
	go func() {
		_, err := f.Recv(ctxT(t), "B", "phantom", "t")
		errCh <- err
	}()
	waitPending(t, f, 2)
	f.TerminateAbsentID(liveIDs(f, "A", "B"))
	for i := 0; i < 2; i++ {
		if err := <-errCh; !errors.Is(err, ErrPeerTerminated) {
			t.Fatalf("err = %v, want ErrPeerTerminated", err)
		}
	}
	if !f.Terminated("ghost") || !f.Terminated("phantom") {
		t.Fatal("absent targets must be marked terminated")
	}
	if f.Terminated("A") || f.Terminated("B") {
		t.Fatal("live owners must not be terminated")
	}
}

func TestTerminateAbsentSparesLiveTargets(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 42) }()
	waitPending(t, f, 1)
	f.TerminateAbsentID(liveIDs(f, "A", "B"))
	// The pending send must still be alive and matchable.
	v, err := f.Recv(ctx, "B", "A", "t")
	if err != nil || v != 42 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTerminateAbsentNeverKillsAnOwnerOfPendingOps(t *testing.T) {
	// A has a pending op; even if isLive says A is dead, the owner rule
	// protects it (a blocked party is alive by definition).
	f := New()
	ctx := ctxT(t)
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
	waitPending(t, f, 1)
	recvStarted := make(chan struct{})
	go func() {
		close(recvStarted)
		_, _ = f.Recv(ctx, "B", "A", "t")
	}()
	<-recvStarted
	f.TerminateAbsentID(liveIDs(f))
	// A owns a pending op, so it must not be terminated; the rendezvous
	// should still complete (B's recv may or may not be pending at the
	// moment of the call, but A->B is protected either way only if B
	// stayed alive too; B owns the recv).
	if err := <-done; err != nil && !errors.Is(err, ErrPeerTerminated) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTerminateAbsentWithSelectGroups(t *testing.T) {
	// A select over one dead and one live peer: after TerminateAbsentID, the
	// dead branch is gone but the live branch must still commit.
	f := New()
	ctx := ctxT(t)
	outCh := make(chan Outcome, 1)
	errCh := make(chan error, 1)
	go func() {
		out, err := f.Do(ctx, "P", []Branch{
			{Dir: DirRecv, Peer: "dead", Tag: "t"},
			{Dir: DirRecv, Peer: "live", Tag: "t"},
		})
		outCh <- out
		errCh <- err
	}()
	waitPending(t, f, 2)
	f.TerminateAbsentID(liveIDs(f, "P", "live"))
	select {
	case err := <-errCh:
		t.Fatalf("select failed though one peer is live: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := f.Send(ctx, "live", "P", "t", "ok"); err != nil {
		t.Fatal(err)
	}
	out := <-outCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if out.Val != "ok" || out.Index != 1 {
		t.Fatalf("out = %+v", out)
	}
}

func TestTerminateAbsentIgnoresAnyPeerOps(t *testing.T) {
	// A RecvAny has no specific target; TerminateAbsentID must not fail it.
	f := New()
	ctx := ctxT(t)
	outCh := make(chan error, 1)
	go func() {
		_, err := f.RecvAny(ctx, "P")
		outCh <- err
	}()
	waitPending(t, f, 1)
	f.TerminateAbsentID(liveIDs(f, "P"))
	select {
	case err := <-outCh:
		t.Fatalf("RecvAny failed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := f.Send(ctx, "Q", "P", "t", 1); err != nil {
		t.Fatal(err)
	}
	if err := <-outCh; err != nil {
		t.Fatal(err)
	}
}

func TestTerminateAbsentIdempotentAndEmpty(t *testing.T) {
	f := New()
	f.TerminateAbsentID(func(ID) bool { return true }) // no pending ops
	f.TerminateAbsentID(liveIDs(f))                    // still nothing
	if f.PendingCount() != 0 {
		t.Fatal("pending count changed")
	}
	// Fabric still functional.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
	if _, err := f.Recv(ctx, "B", "A", "t"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
