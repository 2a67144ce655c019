package rendezvous

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestAbortFailsBlockedAndFutureOps: Abort releases every blocked operation
// with the supplied reason, future operations fail with the same reason (not
// ErrClosed), and Reset clears the aborted state.
func TestAbortFailsBlockedAndFutureOps(t *testing.T) {
	f := New()
	reason := errors.New("performance 7 aborted: deadline exceeded")

	blocked := make(chan error, 2)
	go func() {
		err := f.Send(context.Background(), "a", "b", "", 1)
		blocked <- err
	}()
	go func() {
		_, err := f.Recv(context.Background(), "c", "d", "")
		blocked <- err
	}()
	waitUntil(t, func() bool { return f.PendingCount() == 2 })

	f.Abort(reason)

	for i := 0; i < 2; i++ {
		select {
		case err := <-blocked:
			if !errors.Is(err, reason) {
				t.Fatalf("blocked op err = %v, want abort reason", err)
			}
			if errors.Is(err, ErrClosed) {
				t.Fatalf("blocked op err = %v, must be distinct from ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blocked operation not released by Abort")
		}
	}

	// Future operations keep failing with the reason — a wedged party calling
	// in late still learns why its performance died.
	if err := f.Send(context.Background(), "x", "y", "", 2); !errors.Is(err, reason) {
		t.Fatalf("post-abort op err = %v, want abort reason", err)
	}

	// Reset returns the fabric to service.
	f.Reset()
	done := make(chan error, 1)
	go func() { done <- f.Send(context.Background(), "a", "b", "", 3) }()
	if _, err := f.Recv(context.Background(), "b", "a", ""); err != nil {
		t.Fatalf("recv after Reset: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("send after Reset: %v", err)
	}
}

// TestAbortIdempotentAndOrderedWithClose: the first abort reason wins, and
// Close counts as one: Abort after Close is a no-op (closed stays closed), and
// Close after Abort keeps the abort's reason.
func TestAbortIdempotentAndOrderedWithClose(t *testing.T) {
	f := New()
	first := errors.New("first reason")
	f.Abort(first)
	f.Abort(errors.New("second reason"))
	if err := f.Send(context.Background(), "a", "b", "", 1); !errors.Is(err, first) {
		t.Fatalf("err = %v, want first abort reason", err)
	}

	g := New()
	g.Close()
	g.Abort(errors.New("too late"))
	if err := g.Send(context.Background(), "a", "b", "", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed (Abort after Close must not override)", err)
	}

	h := New()
	h.Abort(first)
	if owed := h.Close(); owed != nil {
		t.Fatalf("Close after Abort owes %d outcomes", len(owed))
	}
	if err := h.Send(context.Background(), "a", "b", "", 1); !errors.Is(err, first) || errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want the abort reason (Close after Abort must not override)", err)
	}
}

// TestAbortNilReasonDefaults: Abort(nil) uses ErrAborted.
func TestAbortNilReasonDefaults(t *testing.T) {
	f := New()
	f.Abort(nil)
	if err := f.Send(context.Background(), "a", "b", "", 1); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

// TestWaitingReportsBlockedOwner: WaitingIDs names an address exactly while
// it owns a pending operation.
func TestWaitingReportsBlockedOwner(t *testing.T) {
	f := New()
	if waiting(f, "a") {
		t.Fatal("a waiting on an empty fabric")
	}
	done := make(chan error, 1)
	go func() { done <- f.Send(context.Background(), "a", "b", "", 1) }()
	waitUntil(t, func() bool { return waiting(f, "a") })
	if waiting(f, "b") {
		t.Fatal("b waiting, though it never posted")
	}
	if _, err := f.Recv(context.Background(), "b", "a", ""); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
	waitUntil(t, func() bool { return !waiting(f, "a") })
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
