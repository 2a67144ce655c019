package rendezvous

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// checkPosted fails unless the fabric's count of posted ops is what a walk of
// the pending lists finds, and want.
func checkPosted(t *testing.T, f *Fabric, when string, want int) {
	t.Helper()
	_, posted, counted := f.terminateWalked()
	if posted != counted || posted != want {
		t.Fatalf("%s: the fabric counts %d posted ops, its pending lists hold %d, want %d", when, posted, counted, want)
	}
}

// TestTerminateWithNothingPostedVisitsNoEndpoint: a star's worth of roles
// exchange on the fast lane — so every endpoint is on the used list — and
// then end one by one, as the roles of a performance do. No group can be
// stranded in a pending list that holds nothing, and no endpoint is visited
// to find that out.
func TestTerminateWithNothingPostedVisitsNoEndpoint(t *testing.T) {
	const n = 24
	f, ctx := New(), ctxT(t)
	addrs := []Addr{"hub"}
	for i := 1; i <= n; i++ {
		addrs = append(addrs, Addr(fmt.Sprintf("r%d", i)))
	}
	f.Declare(addrs...)
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		go func(id ID) {
			_, err := f.RecvID(ctx, id, 0, "t")
			errs <- err
		}(ID(i))
	}
	for i := 1; i <= n; i++ {
		if err := f.SendID(ctx, 0, ID(i), "t", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for id := range addrs {
		f.TerminateID(ID(id))
	}
	if walked, _, _ := f.terminateWalked(); walked != 0 {
		t.Fatalf("%d terminations with nothing posted visited %d endpoints, want 0", len(addrs), walked)
	}
	checkPosted(t, f, "after the terminations", 0)
	// What a termination owes the ops that arrive later does not depend on the
	// walk: they fail at the door.
	if err := f.SendID(ctx, 0, 1, "t", 0); !errors.Is(err, ErrSelfTerminated) {
		t.Fatalf("send by a terminated endpoint: %v, want ErrSelfTerminated", err)
	}
	f.Reset()
	if err := f.checkQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestPostedCountFollowsThePendingLists takes the count through every way an
// op enters and leaves a pending list — posted by an alternative, taken out
// by a commit, a withdrawal, a termination of its owner or of its last live
// peer, an abort, a close — and checks after each step that the count is what
// the lists hold, and that a termination with ops posted still fails exactly
// the groups it strands.
func TestPostedCountFollowsThePendingLists(t *testing.T) {
	selectOn := func(f *Fabric, ctx context.Context, owner Addr, peers ...Addr) <-chan error {
		branches := make([]Branch, len(peers))
		for i, p := range peers {
			branches[i] = Branch{Dir: DirRecv, Peer: p, Tag: "t"}
		}
		done := make(chan error, 1)
		go func() {
			_, err := f.Do(ctx, owner, branches)
			done <- err
		}()
		return done
	}

	t.Run("stuck group fails when its last live peer ends", func(t *testing.T) {
		f := New()
		done := selectOn(f, ctxT(t), "P", "X", "Y")
		other := selectOn(f, ctxT(t), "Q", "Y", "Z")
		waitPending(t, f, 4)
		checkPosted(t, f, "two alternatives posted", 4)
		f.Terminate("X")
		if walked, _, _ := f.terminateWalked(); walked == 0 {
			t.Fatal("a termination with ops posted walked nothing")
		}
		checkPosted(t, f, "X terminated, nobody stranded", 4)
		f.Terminate("Y")
		if err := <-done; !errors.Is(err, ErrPeerTerminated) {
			t.Fatalf("P's alternative: %v, want ErrPeerTerminated", err)
		}
		checkPosted(t, f, "P stranded, Q still waits on Z", 2)
		f.Terminate("Q")
		if err := <-other; !errors.Is(err, ErrSelfTerminated) {
			t.Fatalf("Q's alternative: %v, want ErrSelfTerminated", err)
		}
		checkPosted(t, f, "Q terminated", 0)
	})

	t.Run("commit and withdrawal", func(t *testing.T) {
		f, ctx := New(), ctxT(t)
		done := selectOn(f, ctx, "P", "X", "Y")
		waitPending(t, f, 2)
		if err := f.Send(ctx, "X", "P", "t", 1); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		checkPosted(t, f, "the alternative committed", 0)
		cctx, cancel := context.WithCancel(ctx)
		done = selectOn(f, cctx, "P", "X", "Y")
		waitPending(t, f, 2)
		checkPosted(t, f, "posted again", 2)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("withdrawn alternative: %v", err)
		}
		checkPosted(t, f, "withdrawn", 0)
	})

	t.Run("slow-lane sends are counted once", func(t *testing.T) {
		f, ctx := New(WithoutFastPath()), ctxT(t)
		done := make(chan error, 1)
		go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
		waitPending(t, f, 1)
		checkPosted(t, f, "a send posted", 1)
		f.Terminate("B")
		if err := <-done; !errors.Is(err, ErrPeerTerminated) {
			t.Fatalf("send to a terminated peer: %v", err)
		}
		checkPosted(t, f, "its peer terminated", 0)
	})

	for name, end := range map[string]func(*Fabric){
		"abort": func(f *Fabric) { f.Abort(nil) },
		"close": func(f *Fabric) { f.Close() },
	} {
		t.Run(name, func(t *testing.T) {
			f := New()
			done := selectOn(f, ctxT(t), "P", "X", "Y")
			waitPending(t, f, 2)
			end(f)
			if err := <-done; err == nil {
				t.Fatal("the alternative outlived the fabric")
			}
			checkPosted(t, f, "everything failed", 0)
			f.Reset()
			if err := f.checkQuiescent(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
