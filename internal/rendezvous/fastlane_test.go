package rendezvous

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// --- lane routing ----------------------------------------------------------

func TestFastLaneEngagesForPointToPoint(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	const n = 50
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := f.Send(ctx, "A", "B", "t", i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		v, err := f.Recv(ctx, "B", "A", "t")
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if v != i {
			t.Fatalf("Recv %d = %v (FIFO violated)", i, v)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if f.FastCommits() == 0 {
		t.Fatal("no fast-lane commits for a pure point-to-point workload")
	}
}

func TestWithoutFastPathDisablesFastLane(t *testing.T) {
	f := New(WithoutFastPath())
	ctx := ctxT(t)
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
	if _, err := f.Recv(ctx, "B", "A", "t"); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := f.FastCommits(); got != 0 {
		t.Fatalf("FastCommits = %d with the fast path disabled", got)
	}
}

func TestRandomMatchingDisablesFastLane(t *testing.T) {
	f := New(WithRandomMatching(7))
	ctx := ctxT(t)
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
	if _, err := f.Recv(ctx, "B", "A", "t"); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := f.FastCommits(); got != 0 {
		t.Fatalf("FastCommits = %d under seeded-random matching (must route via the slow lane)", got)
	}
}

// --- escalation between the lanes ------------------------------------------

// A generalized (multi-branch) alternative must find an op that first parked
// in a fast-lane cell: the slow pass drains matching cells.
func TestSlowAlternativeMatchesFastParkedOp(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 99) }() // parks in a cell
	waitPending(t, f, 1)
	out, err := f.Do(ctx, "B", []Branch{
		{Dir: DirRecv, Peer: "C", Tag: "t"},
		{Dir: DirRecv, Peer: "A", Tag: "t"},
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if out.Index != 1 || out.Val != 99 {
		t.Fatalf("Do outcome = %+v, want branch 1 val 99", out)
	}
	if err := <-done; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// A fast-lane op arriving while a slow-lane alternative is posted must
// escalate (the posted group raises its owner's hot mark) and match it.
func TestFastOpMeetsPostedSlowAlternative(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	done := make(chan Outcome, 1)
	errs := make(chan error, 1)
	go func() {
		out, err := f.Do(ctx, "B", []Branch{
			{Dir: DirRecv, Peer: "C", Tag: "t"},
			{Dir: DirRecv, Peer: "A", Tag: "t"},
		})
		if err != nil {
			errs <- err
			return
		}
		done <- out
	}()
	waitPending(t, f, 1)
	if err := f.Send(ctx, "A", "B", "t", 7); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case out := <-done:
		if out.Index != 1 || out.Val != 7 {
			t.Fatalf("Do outcome = %+v, want branch 1 val 7", out)
		}
	case err := <-errs:
		t.Fatalf("Do: %v", err)
	}
}

// --- failure semantics over parked ops -------------------------------------

func TestTerminateFailsFastParkedOps(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	peerDone := make(chan error, 1)
	go func() { peerDone <- f.Send(ctx, "A", "B", "t", 1) }()
	waitPending(t, f, 1)
	f.Terminate("B")
	if err := <-peerDone; !errors.Is(err, ErrPeerTerminated) {
		t.Fatalf("Send after peer terminated = %v, want ErrPeerTerminated", err)
	}

	selfDone := make(chan error, 1)
	go func() { selfDone <- f.Send(ctx, "C", "D", "t", 1) }()
	waitPending(t, f, 1)
	f.Terminate("C")
	if err := <-selfDone; !errors.Is(err, ErrSelfTerminated) {
		t.Fatalf("Send after own termination = %v, want ErrSelfTerminated", err)
	}
}

func TestCloseAndAbortFailFastParkedOps(t *testing.T) {
	ctx := ctxT(t)

	f := New()
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
	waitPending(t, f, 1)
	f.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}

	f2 := New()
	reason := errors.New("boom")
	go func() { done <- f2.Send(ctx, "A", "B", "t", 1) }()
	waitPending(t, f2, 1)
	f2.Abort(reason)
	if err := <-done; !errors.Is(err, reason) {
		t.Fatalf("Send after Abort = %v, want %v", err, reason)
	}
}

func TestWaitingAndPendingCountCoverCells(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
	waitPending(t, f, 1)
	if !f.Waiting("A") {
		t.Fatal("Waiting(A) = false for a fast-parked op")
	}
	if f.Waiting("B") {
		t.Fatal("Waiting(B) = true; B has no pending op")
	}
	if _, err := f.Recv(ctx, "B", "A", "t"); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitPending(t, f, 0)
}

func TestTerminateAbsentSeesFastParkedOps(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "Ghost", "t", 1) }() // parks against an absent peer
	waitPending(t, f, 1)
	f.TerminateAbsentID(liveIDs(f, "A")) // only A is live
	if err := <-done; !errors.Is(err, ErrPeerTerminated) {
		t.Fatalf("Send to absent peer = %v, want ErrPeerTerminated", err)
	}
}

func TestContextCancellationUnparksFastOp(t *testing.T) {
	f := New()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
	waitPending(t, f, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Send after cancel = %v, want context.Canceled", err)
	}
	waitPending(t, f, 0)
	if f.Waiting("A") {
		t.Fatal("withdrawn op still reported Waiting")
	}
}

// --- FIFO determinism across lanes -----------------------------------------

// committedOrder runs a fixed scenario — three senders park (in pinned
// order), then the receiver drains them — and returns the values in arrival
// order at the receiver.
func committedOrder(t *testing.T, f *Fabric) []any {
	t.Helper()
	ctx := ctxT(t)
	var wg sync.WaitGroup
	for i, from := range []Addr{"S1", "S2", "S3"} {
		wg.Add(1)
		go func(i int, from Addr) {
			defer wg.Done()
			if err := f.Send(ctx, from, "R", "t", i); err != nil {
				t.Errorf("Send %s: %v", from, err)
			}
		}(i, from)
		waitPending(t, f, i+1) // pin the post order before the next sender
	}
	var got []any
	for range 3 {
		out, err := f.RecvAny(ctx, "R")
		if err != nil {
			t.Fatalf("RecvAny: %v", err)
		}
		got = append(got, out.Val)
	}
	wg.Wait()
	return got
}

// FIFO matching must not depend on which lane the senders' offers took:
// with the fast lane on, the parked cells drain into the matcher in their
// original post order.
func TestFIFOOrderIdenticalAcrossLanes(t *testing.T) {
	fast := committedOrder(t, New())
	slow := committedOrder(t, New(WithoutFastPath()))
	if fmt.Sprint(fast) != fmt.Sprint(slow) {
		t.Fatalf("committed order differs across lanes: fast=%v slow=%v", fast, slow)
	}
	if fmt.Sprint(fast) != "[0 1 2]" {
		t.Fatalf("committed order = %v, want FIFO [0 1 2]", fast)
	}
}

// Under seeded-random matching the fast lane is off, so the same seed must
// reproduce the same committed pairs, run after run.
func TestRandomMatchingDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []any {
		f := New(WithRandomMatching(seed))
		return committedOrder(t, f)
	}
	a, b := run(42), run(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed gave different committed orders: %v vs %v", a, b)
	}
}

// --- Scatter ----------------------------------------------------------------

func TestScatterDeliversToAllTargets(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	const n = 16
	var wg sync.WaitGroup
	got := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := f.Recv(ctx, Addr(fmt.Sprintf("R%d", i)), "S", "t")
			if err != nil {
				t.Errorf("Recv R%d: %v", i, err)
				return
			}
			got[i] = v
		}(i)
	}
	targets := make([]Addr, n)
	for i := range targets {
		targets[i] = Addr(fmt.Sprintf("R%d", i))
	}
	if err := f.Scatter(ctx, "S", "t", targets, []any{"x"}); err != nil {
		t.Fatalf("Scatter: %v", err)
	}
	wg.Wait()
	for i, v := range got {
		if v != "x" {
			t.Fatalf("R%d received %v, want x", i, v)
		}
	}
}

func TestScatterPerTargetValues(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	const n = 4
	var wg sync.WaitGroup
	got := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := f.Recv(ctx, Addr(fmt.Sprintf("R%d", i)), "S", "t")
			if err != nil {
				t.Errorf("Recv R%d: %v", i, err)
				return
			}
			got[i] = v
		}(i)
	}
	targets := make([]Addr, n)
	vals := make([]any, n)
	for i := range targets {
		targets[i] = Addr(fmt.Sprintf("R%d", i))
		vals[i] = i * 10
	}
	if err := f.Scatter(ctx, "S", "t", targets, vals); err != nil {
		t.Fatalf("Scatter: %v", err)
	}
	wg.Wait()
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("R%d received %v, want %d", i, v, i*10)
		}
	}
}

// A terminated target fails its offer, but the other targets still receive:
// the scatter drives every offer to an outcome before reporting the error.
func TestScatterPartialFailureStillDeliversRest(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	f.Terminate("Dead")
	var wg sync.WaitGroup
	wg.Add(1)
	var got any
	go func() {
		defer wg.Done()
		v, err := f.Recv(ctx, "Live", "S", "t")
		if err != nil {
			t.Errorf("Recv Live: %v", err)
			return
		}
		got = v
	}()
	err := f.Scatter(ctx, "S", "t", []Addr{"Live", "Dead"}, []any{"v"})
	if !errors.Is(err, ErrPeerTerminated) {
		t.Fatalf("Scatter = %v, want ErrPeerTerminated", err)
	}
	wg.Wait()
	if got != "v" {
		t.Fatalf("live target received %v, want v", got)
	}
	waitPending(t, f, 0)
}

func TestScatterCancellationWithdrawsRemainder(t *testing.T) {
	f := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		// Nobody ever receives; the scatter must park and then withdraw.
		errCh <- f.Scatter(ctx, "S", "t", []Addr{"R1", "R2", "R3"}, []any{1})
	}()
	waitPending(t, f, 3)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Scatter after cancel = %v, want context.Canceled", err)
	}
	waitPending(t, f, 0)
}

func TestScatterValidation(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	if err := f.Scatter(ctx, "S", "t", nil, nil); err != nil {
		t.Fatalf("empty Scatter = %v, want nil", err)
	}
	if err := f.Scatter(ctx, "S", "t", []Addr{"A", "B"}, []any{1, 2, 3}); err == nil {
		t.Fatal("Scatter with mismatched vals length succeeded")
	}
}

// --- chaos: fast-lane faults never break linearizability --------------------

// seededFaults is a minimal FastFaults used to perturb the fast lane in
// tests: every parked op is delayed a little and a fraction are evicted to
// the slow lane.
type seededFaults struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *seededFaults) FastDelay() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng.Intn(4) == 0 {
		return time.Duration(s.rng.Intn(50)) * time.Microsecond
	}
	return 0
}

func (s *seededFaults) FastEvict() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(4) == 0
}

// Under injected fast-lane faults (delays widening the escalation windows,
// spurious evictions rerouting ops through the slow lane), every message
// stream must still arrive exactly once and in order.
func TestFastFaultsPreserveLinearizability(t *testing.T) {
	f := New()
	f.SetFastFaults(&seededFaults{rng: rand.New(rand.NewSource(20260806))})
	ctx := ctxT(t)
	const pairs, msgs = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		from := Addr(fmt.Sprintf("S%d", p))
		to := Addr(fmt.Sprintf("R%d", p))
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := f.Send(ctx, from, to, "t", i); err != nil {
					t.Errorf("Send %s %d: %v", from, i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				v, err := f.Recv(ctx, to, from, "t")
				if err != nil {
					t.Errorf("Recv %s %d: %v", to, i, err)
					return
				}
				if v != i {
					t.Errorf("%s message %d = %v (lost, duplicated, or reordered)", to, i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitPending(t, f, 0)
}

// Reset must clear the hot marks, the terminations, the fault injector, and
// the fast-commit counters so a reused fabric starts cold.
func TestResetClearsFastLaneState(t *testing.T) {
	f := New()
	f.SetFastFaults(&seededFaults{rng: rand.New(rand.NewSource(1))})
	ctx := ctxT(t)
	done := make(chan error, 1)
	go func() { done <- f.Send(ctx, "A", "B", "t", 1) }()
	if _, err := f.Recv(ctx, "B", "A", "t"); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	<-done
	f.Terminate("A")
	f.Close()
	f.Reset()
	if got := f.FastCommits(); got != 0 {
		t.Fatalf("FastCommits after Reset = %d", got)
	}
	if f.PendingCount() != 0 {
		t.Fatalf("PendingCount after Reset = %d", f.PendingCount())
	}
	// The fabric must be fully usable again, fast lane included.
	go func() { done <- f.Send(ctx, "A", "B", "t", 2) }()
	v, err := f.Recv(ctx, "B", "A", "t")
	if err != nil || v != 2 {
		t.Fatalf("Recv after Reset = %v, %v", v, err)
	}
	<-done
	if f.FastCommits() == 0 {
		t.Fatal("fast lane did not re-engage after Reset")
	}
}

// --- allocation regression for the O(1) withdrawal path ---------------------

// Withdrawing one alternative must not allocate proportionally to the number
// of other pending ops: removal is O(1) swap-delete, not a slice filter.
func TestWithdrawalAllocsIndependentOfPending(t *testing.T) {
	ctx := ctxT(t)
	measure := func(pending int) float64 {
		f := New(WithoutFastPath())
		cctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for i := 0; i < pending; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f.Send(cctx, "S", Addr(fmt.Sprintf("X%d", i)), "t", i) //nolint:errcheck
			}(i)
		}
		waitPending(t, f, pending)
		per := testing.AllocsPerRun(50, func() {
			wctx, wcancel := context.WithCancel(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				f.Do(wctx, "S", []Branch{{Dir: DirRecv, Peer: "NeverComes", Tag: "t"}}) //nolint:errcheck
			}()
			waitPending(t, f, pending+1)
			wcancel()
			<-done
		})
		cancel()
		wg.Wait()
		return per
	}
	small, large := measure(2), measure(64)
	// Allow generous slack for goroutine/context noise; the regression this
	// guards against (re-filtering a 64-element slice per removal) costs a
	// fresh slice allocation scaling with the pending count.
	if large > small*2+16 {
		t.Fatalf("withdrawal allocations grow with pending ops: %0.1f at 2 pending vs %0.1f at 64", small, large)
	}
}
