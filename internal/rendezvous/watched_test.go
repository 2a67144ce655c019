package rendezvous

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ctxwatch"
)

// The watched wait: a blocking call whose context has a set in the fabric's
// watch parks on its outcome alone, and the watch's function withdraws it if
// the context ends (see await). These tests pin the withdrawal on both lanes
// and for a Scatter, the one outcome of a withdrawal that races a commit, the
// rule that the waiter keeps its slot and its Scatter table until the
// function has let go of them, and a declined context's allocations.

// watchedFabric returns a fabric whose calls' contexts are kept in a watch,
// and a context that watch holds a set for — as an instance's watch holds
// one for the context its enrollments wait under — with its cancel.
func watchedFabric(t *testing.T, opts ...Option) (*Fabric, context.Context, context.CancelFunc) {
	t.Helper()
	w := new(ctxwatch.Watch)
	ctx, cancel := context.WithCancel(context.Background())
	enroller := &ctxwatch.Entry{Func: func() {}}
	w.Add(ctx, enroller)
	t.Cleanup(func() { w.Remove(enroller); cancel() })
	return New(append(opts, WithWatch(w))...), ctx, cancel
}

// awaitParks returns what the one goroutine parked in Fabric.await waits on:
// "chan receive", its outcome alone, or "select", its outcome and ctx.Done().
func awaitParks(t *testing.T) string {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if !strings.Contains(g, "rendezvous.(*Fabric).await(") {
				continue
			}
			state, _, _ := strings.Cut(g[strings.Index(g, "[")+1:strings.Index(g, "]")], ",")
			if state == "chan receive" || state == "select" {
				return state
			}
		}
	}
	t.Fatal("no goroutine parked in Fabric.await")
	return ""
}

// lanes are the ways a blocking point call waits: parked in a cell, posted in
// the matcher, and posted as an alternative of two branches.
var lanes = []struct {
	name string
	opts []Option
	recv func(f *Fabric, ctx context.Context) (any, error)
}{
	{"fast", nil, func(f *Fabric, ctx context.Context) (any, error) { return f.Recv(ctx, "B", "A", "t") }},
	{"slow", []Option{WithoutFastPath()}, func(f *Fabric, ctx context.Context) (any, error) { return f.Recv(ctx, "B", "A", "t") }},
	{"alternative", nil, func(f *Fabric, ctx context.Context) (any, error) {
		out, err := f.Do(ctx, "B", []Branch{{Dir: DirRecv, Peer: "A", Tag: "t"}, {Dir: DirRecv, Peer: "C", Tag: "t"}})
		return out.Val, err
	}},
}

// TestWatchedWaitEndsAParkedOp: a call parked under a context the watch has a
// set for waits on a plain receive, and under one it has none for on a
// select; on every lane, either way, the end of the context withdraws the op
// and the call reports the context's error.
func TestWatchedWaitEndsAParkedOp(t *testing.T) {
	for _, lane := range lanes {
		for _, watched := range []bool{true, false} {
			name, want := lane.name+"/watched", "chan receive"
			if !watched {
				name, want = lane.name+"/declined", "select"
			}
			t.Run(name, func(t *testing.T) {
				f, ctx, cancel := watchedFabric(t, lane.opts...)
				if !watched {
					ctx, cancel = context.WithCancel(context.Background())
				}
				errCh := make(chan error, 1)
				go func() { _, err := lane.recv(f, ctx); errCh <- err }()
				if got := awaitParks(t); got != want {
					t.Fatalf("the call parks on a %s, want a %s", got, want)
				}
				cancel()
				if err := <-errCh; !errors.Is(err, context.Canceled) {
					t.Fatalf("the call returned %v, want context.Canceled", err)
				}
				if n := f.PendingCount(); n != 0 {
					t.Fatalf("%d ops pending after the withdrawal", n)
				}
				sctx, scancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer scancel()
				if err := f.Send(sctx, "A", "B", "t", 1); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("a send to the withdrawn receive returned %v, want it to find no one", err)
				}
			})
		}
	}
}

// TestWatchedWaitRacesACommit ends a parked receive's context as a send
// arrives for it, 200 times over the lanes: the two calls agree — the value
// went across and both succeed, or the receive was withdrawn and the send
// finds no one — and nothing is left in the fabric.
func TestWatchedWaitRacesACommit(t *testing.T) {
	committed := 0
	for i := range 200 {
		lane := lanes[i%len(lanes)]
		f, ctx, cancel := watchedFabric(t, lane.opts...)
		type got struct {
			v   any
			err error
		}
		recvCh := make(chan got, 1)
		go func() { v, err := lane.recv(f, ctx); recvCh <- got{v, err} }()
		waitPending(t, f, 1)
		sctx, scancel := context.WithCancel(context.Background())
		sendCh := make(chan error, 1)
		go func() { sendCh <- f.Send(sctx, "A", "B", "t", i) }()
		go cancel()
		r := <-recvCh
		if r.err != nil {
			scancel() // the withdrawn receive left the send alone
		}
		serr := <-sendCh
		scancel()
		switch {
		case r.err == nil && r.v == i && serr == nil:
			committed++
		case errors.Is(r.err, context.Canceled) && errors.Is(serr, context.Canceled):
		default:
			t.Fatalf("round %d (%s): the receive returned %v, %v and the send %v", i, lane.name, r.v, r.err, serr)
		}
		if n := f.PendingCount(); n != 0 {
			t.Fatalf("round %d (%s): %d ops pending", i, lane.name, n)
		}
	}
	t.Logf("%d of 200 rounds committed", committed)
}

// stillWaiting fails the test if the call has returned on errCh.
func stillWaiting(t *testing.T, errCh chan error, what string) {
	t.Helper()
	select {
	case err := <-errCh:
		t.Fatalf("%s returned (%v) before both the watch's function and its outcome were done with it", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestWatchedWaitHoldsItsSlotUntilTheFunctionEnds stalls the watch's function
// inside its withdrawal, behind the fabric lock, while a commit claims the
// call's op. Delivered the outcome first, the call still does not return —
// releasing its slot to the pool — until the function has let go; told the
// function's word first, it waits on for the outcome the commit owes it.
func TestWatchedWaitHoldsItsSlotUntilTheFunctionEnds(t *testing.T) {
	for _, wordFirst := range []bool{false, true} {
		name := "outcome-first"
		if wordFirst {
			name = "word-first"
		}
		t.Run(name, func(t *testing.T) {
			f, ctx, cancel := watchedFabric(t, WithoutFastPath())
			errCh := make(chan error, 1)
			var v any
			go func() {
				var err error
				v, err = f.Recv(ctx, "B", "A", "t")
				errCh <- err
			}()
			if got := awaitParks(t); got != "chan receive" {
				t.Fatalf("the call parks on a %s", got)
			}
			f.mu.Lock()
			g := f.table()[f.Endpoint("B")].pending[0].g
			cancel()
			waitUntil(t, g.slot.entry.Fired) // the function runs, and waits for f.mu
			g.claim()
			f.removeGroupLocked(g)
			if wordFirst {
				f.mu.Unlock() // the function finds the op claimed, and says so
				stillWaiting(t, errCh, "the call")
				f.mu.Lock()
			}
			f.deliverLocked(g, result{out: IDOutcome{Val: "committed"}})
			if !wordFirst {
				stillWaiting(t, errCh, "the call")
			}
			f.mu.Unlock()
			if err := <-errCh; err != nil || v != "committed" {
				t.Fatalf("the call returned %v, %v; want the committed outcome", v, err)
			}
		})
	}
}

// TestWatchedWaitHoldsItsScatterTableUntilTheFunctionEnds stalls the watch's
// function as it withdraws a blocking Scatter's one offer, behind the
// target's inbox lock, while the offer commits: the table's last count is
// in, and the Scatter still does not reap its table until the function has
// let go of it.
func TestWatchedWaitHoldsItsScatterTableUntilTheFunctionEnds(t *testing.T) {
	f, ctx, cancel := watchedFabric(t)
	errCh := make(chan error, 1)
	go func() { errCh <- f.Scatter(ctx, "S", "t", []Addr{"T"}, []any{1}) }()
	if got := awaitParks(t); got != "chan receive" {
		t.Fatalf("the Scatter parks on a %s", got)
	}
	s, to := f.intern("S"), f.intern("T")
	to.mu.Lock()
	c := to.find(s.id, "t")
	tbl := c.ops[0].g.done.(*scatterSlot).t
	cancel()
	waitUntil(t, tbl.entry.Fired) // the function runs, and waits for to.mu
	to.commitHead(c, s).g.deliver(result{})
	stillWaiting(t, errCh, "the Scatter")
	to.mu.Unlock()
	if err := <-errCh; err != nil {
		t.Fatalf("the Scatter returned %v; its one offer committed", err)
	}
}

// TestWatchedWaitCancelsAScatterWithOffersOut: a blocking Scatter to three
// targets, of which one has received, parks on its table alone under a
// watched context and on a select under one the watch has none for; the end
// of the context withdraws the two offers still out and the Scatter reports
// it, on either lane.
func TestWatchedWaitCancelsAScatterWithOffersOut(t *testing.T) {
	for _, lane := range lanes[:2] {
		for _, watched := range []bool{true, false} {
			name, want := lane.name+"/watched", "chan receive"
			if !watched {
				name, want = lane.name+"/declined", "select"
			}
			t.Run(name, func(t *testing.T) {
				f, ctx, cancel := watchedFabric(t, lane.opts...)
				if !watched {
					ctx, cancel = context.WithCancel(context.Background())
				}
				errCh := make(chan error, 1)
				go func() { errCh <- f.Scatter(ctx, "S", "t", []Addr{"T1", "T2", "T3"}, []any{"v"}) }()
				if v, err := f.Recv(ctxT(t), "T2", "S", "t"); err != nil || v != "v" {
					t.Fatalf("T2 received %v, %v", v, err)
				}
				if got := awaitParks(t); got != want {
					t.Fatalf("the Scatter parks on a %s, want a %s", got, want)
				}
				cancel()
				if err := <-errCh; !errors.Is(err, context.Canceled) {
					t.Fatalf("the Scatter returned %v, want context.Canceled", err)
				}
				if n := f.PendingCount(); n != 0 {
					t.Fatalf("%d ops pending after the withdrawal", n)
				}
				rctx, rcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer rcancel()
				if _, err := f.Recv(rctx, "T3", "S", "t"); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("a receive of a withdrawn offer returned %v, want it to find no one", err)
				}
			})
		}
	}
}

// TestWatchedWaitDeclinesAPerRequestContextAtNoCost: a request that makes two
// rendezvous under a context of its own allocates what it does in a fabric
// with no watch. The watch holds a set for another context, and is never
// asked to make one for the request's: were it, the second wait under the
// same context would pay a set and its context.AfterFunc.
func TestWatchedWaitDeclinesAPerRequestContextAtNoCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	measure := func(f *Fabric) float64 {
		a, b := f.Endpoint("A"), f.Endpoint("B")
		sends := make(chan struct{}, 2)
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-sends:
					f.SendID(context.Background(), a, b, "t", 1)
				case <-done:
					return
				}
			}
		}()
		// One processor (AllocsPerRun's): the receive parks before the
		// sender runs, so each of the two waits blocks.
		return testing.AllocsPerRun(200, func() {
			ctx, cancel := context.WithCancel(context.Background())
			for range 2 {
				sends <- struct{}{}
				f.RecvID(ctx, b, a, "t")
			}
			cancel()
		})
	}
	watched, _, _ := watchedFabric(t)
	plain, got := measure(New()), measure(watched)
	t.Logf("a request of two rendezvous under its own context: %v objects, %v with no watch", got, plain)
	if got > plain {
		t.Fatalf("a request under its own context allocates %v objects in a watched fabric, %v in one with no watch", got, plain)
	}
}
