package patterns

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/locktable"
	"github.com/scriptabs/goscript/internal/trace"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func runBroadcast(t *testing.T, def core.Definition, n int, value string) []string {
	t.Helper()
	ctx := testCtx(t)
	in := core.NewInstance(def)
	defer in.Close()

	results := make([]string, n+1)
	var wg sync.WaitGroup
	errs := make(chan error, n+1)
	for i := 1; i <= n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := EnrollRecipient[string](ctx, in, ids.PID(fmt.Sprintf("R%d", i)), i)
			results[i] = v
			errs <- err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- EnrollSender(ctx, in, "T", value)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return results[1:]
}

func TestStarBroadcastDeliversToAll(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for _, v := range runBroadcast(t, StarBroadcast(n), n, "hello") {
				if v != "hello" {
					t.Fatalf("recipient got %q", v)
				}
			}
		})
	}
}

func TestPipelineBroadcastDeliversToAll(t *testing.T) {
	for _, n := range []int{1, 3, 6} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for _, v := range runBroadcast(t, PipelineBroadcast(n), n, "pipe") {
				if v != "pipe" {
					t.Fatalf("recipient got %q", v)
				}
			}
		})
	}
}

func TestTreeBroadcastDeliversToAll(t *testing.T) {
	for _, tc := range []struct{ n, fanout int }{{1, 2}, {5, 2}, {9, 3}, {7, 1}, {4, 0}} {
		t.Run(fmt.Sprintf("n=%d_f=%d", tc.n, tc.fanout), func(t *testing.T) {
			for _, v := range runBroadcast(t, TreeBroadcast(tc.n, tc.fanout), tc.n, "wave") {
				if v != "wave" {
					t.Fatalf("recipient got %q", v)
				}
			}
		})
	}
}

// TestPipelineSenderLeavesEarly checks the paper's claim for Figure 4: with
// immediate initiation/termination, the sender is released after handing
// the value to recipient 1, before later recipients have even enrolled.
func TestPipelineSenderLeavesEarly(t *testing.T) {
	ctx := testCtx(t)
	const n = 3
	var log trace.Log
	in := core.NewInstance(PipelineBroadcast(n), core.WithTracer(&log))
	defer in.Close()

	r1done := make(chan error, 1)
	go func() {
		_, err := EnrollRecipient[string](ctx, in, "R1", 1)
		r1done <- err
	}()
	if err := EnrollSender(ctx, in, "T", "x"); err != nil {
		t.Fatal(err)
	}
	// Sender released; recipients 2..n have not enrolled yet.
	var wg sync.WaitGroup
	for i := 2; i <= n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := EnrollRecipient[string](ctx, in, ids.PID(fmt.Sprintf("R%d", i)), i); err != nil {
				t.Errorf("recipient %d: %v", i, err)
			}
		}()
	}
	if err := <-r1done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The sender's release must precede the last recipient's enrollment
	// being serviced (start event).
	relT := trace.ByKind(trace.KindRelease, ids.RoleRef{}, "T")
	startLast := trace.ByKind(trace.KindStart, ids.Member(RoleRecipient, n), "")
	if !log.Before(relT, startLast) {
		t.Error("sender was not released before the last recipient started")
	}
}

func TestTreeBroadcastShape(t *testing.T) {
	// With fanout 2 and 6 recipients, the root forwards to 2 and 3; node 2
	// to 4 and 5; node 3 to 6. Verify via send events.
	const n, fanout = 6, 2
	var log trace.Log
	ctx := testCtx(t)
	in := core.NewInstance(TreeBroadcast(n, fanout), core.WithTracer(&log))
	defer in.Close()

	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := EnrollRecipient[string](ctx, in, ids.PID(fmt.Sprintf("R%d", i)), i); err != nil {
				t.Errorf("recipient %d: %v", i, err)
			}
		}()
	}
	if err := EnrollSender(ctx, in, "T", "v"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	wantEdges := map[string]string{
		"sender":       "recipient[1]",
		"recipient[1]": "recipient[2] recipient[3]",
		"recipient[2]": "recipient[4] recipient[5]",
		"recipient[3]": "recipient[6]",
	}
	sends := log.Filter(func(e trace.Event) bool { return e.Kind == trace.KindSend })
	got := map[string]string{}
	for _, e := range sends {
		k := e.Role.String()
		if got[k] != "" {
			got[k] += " "
		}
		got[k] += e.Peer.String()
	}
	for from, to := range wantEdges {
		if got[from] != to {
			t.Errorf("edges from %s = %q, want %q (all: %v)", from, got[from], to, got)
		}
	}
}

func TestEnrollRecipientTypeMismatch(t *testing.T) {
	ctx := testCtx(t)
	in := core.NewInstance(StarBroadcast(1))
	defer in.Close()
	done := make(chan error, 1)
	go func() { done <- EnrollSender(ctx, in, "T", 42) }() // int, not string
	if _, err := EnrollRecipient[string](ctx, in, "R", 1); err == nil {
		t.Fatal("type mismatch must be reported")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// lockManagerHarness starts k managers and returns the instance plus a stop
// function.
func lockManagerHarness(t *testing.T, k int, strat LockStrategy) (*core.Instance, context.Context) {
	t.Helper()
	ctx := testCtx(t)
	mctx, mcancel := context.WithCancel(ctx)
	in := core.NewInstance(LockManager(k, strat))
	var wg sync.WaitGroup
	for i := 1; i <= k; i++ {
		i := i
		table := strat.NewTable()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunManager(mctx, in, ids.PID(fmt.Sprintf("M%d", i)), i, table); err != nil {
				t.Errorf("manager %d: %v", i, err)
			}
		}()
	}
	t.Cleanup(func() {
		mcancel()
		in.Close()
		wg.Wait()
	})
	return in, ctx
}

func TestLockManagerOneReadAllWrite(t *testing.T) {
	const k = 3
	in, ctx := lockManagerHarness(t, k, OneReadAllWrite())

	// A reader gets the lock (one manager grant suffices).
	granted, err := RequestLock(ctx, in, "P1", "alice", "item", false)
	if err != nil || !granted {
		t.Fatalf("read lock: granted=%v err=%v", granted, err)
	}
	// A writer cannot: the manager that granted alice's read denies.
	granted, err = RequestLock(ctx, in, "P2", "bob", "item", true)
	if err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("write lock granted while a read lock is held")
	}
	// Another reader shares fine.
	granted, err = RequestLock(ctx, in, "P3", "carol", "item", false)
	if err != nil || !granted {
		t.Fatalf("second read lock: granted=%v err=%v", granted, err)
	}
	// After both readers release, the writer succeeds.
	if err := ReleaseLock(ctx, in, "P1", "alice", "item", false); err != nil {
		t.Fatal(err)
	}
	if err := ReleaseLock(ctx, in, "P3", "carol", "item", false); err != nil {
		t.Fatal(err)
	}
	granted, err = RequestLock(ctx, in, "P2", "bob", "item", true)
	if err != nil || !granted {
		t.Fatalf("write after releases: granted=%v err=%v", granted, err)
	}
	// And now reads are denied — write locks persist across performances.
	granted, err = RequestLock(ctx, in, "P1", "alice", "item", false)
	if err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("read granted while write lock held (tables not persistent?)")
	}
}

func TestLockManagerWriterRollsBackPartialGrants(t *testing.T) {
	const k = 3
	in, ctx := lockManagerHarness(t, k, OneReadAllWrite())

	// alice takes a write lock; bob's write attempt must fail AND leave no
	// residue, so that after alice releases, bob succeeds everywhere.
	if g, err := RequestLock(ctx, in, "P1", "alice", "x", true); err != nil || !g {
		t.Fatalf("alice write: %v %v", g, err)
	}
	if g, err := RequestLock(ctx, in, "P2", "bob", "x", true); err != nil || g {
		t.Fatalf("bob write should be denied: %v %v", g, err)
	}
	if err := ReleaseLock(ctx, in, "P1", "alice", "x", true); err != nil {
		t.Fatal(err)
	}
	if g, err := RequestLock(ctx, in, "P2", "bob", "x", true); err != nil || !g {
		t.Fatalf("bob write after release: %v %v (rollback leaked grants)", g, err)
	}
}

func TestLockManagerMajority(t *testing.T) {
	const k = 3
	in, ctx := lockManagerHarness(t, k, MajorityLocking())

	// Two concurrent writers on different items both succeed.
	if g, err := RequestLock(ctx, in, "P1", "w1", "a", true); err != nil || !g {
		t.Fatalf("w1: %v %v", g, err)
	}
	if g, err := RequestLock(ctx, in, "P2", "w2", "b", true); err != nil || !g {
		t.Fatalf("w2: %v %v", g, err)
	}
	// A second writer on the same item is denied: majorities intersect.
	if g, err := RequestLock(ctx, in, "P3", "w3", "a", true); err != nil || g {
		t.Fatalf("w3 on a: %v %v (majority intersection violated)", g, err)
	}
	// Majority read of a write-locked item is denied too.
	if g, err := RequestLock(ctx, in, "P4", "r1", "a", false); err != nil || g {
		t.Fatalf("read of write-locked a: %v %v", g, err)
	}
}

func TestLockManagerMultiGranularity(t *testing.T) {
	const k = 2
	in, ctx := lockManagerHarness(t, k, MultiGranularity())

	// alice read-locks a whole table; bob's row write under it must fail.
	if g, err := RequestLock(ctx, in, "P1", "alice", "db/t1", false); err != nil || !g {
		t.Fatalf("alice S on db/t1: %v %v", g, err)
	}
	if g, err := RequestLock(ctx, in, "P2", "bob", "db/t1/r1", true); err != nil || g {
		t.Fatalf("bob X under S: %v %v", g, err)
	}
	// bob can write in a sibling table.
	if g, err := RequestLock(ctx, in, "P2", "bob", "db/t2/r1", true); err != nil || !g {
		t.Fatalf("bob X on db/t2/r1: %v %v", g, err)
	}
	// After alice releases, bob's original target is writable.
	if err := ReleaseLock(ctx, in, "P1", "alice", "db/t1", false); err != nil {
		t.Fatal(err)
	}
	if g, err := RequestLock(ctx, in, "P2", "bob", "db/t1/r1", true); err != nil || !g {
		t.Fatalf("bob X after release: %v %v", g, err)
	}
}

func TestLockManagerReaderAndWriterSamePerformance(t *testing.T) {
	const k = 2
	in, ctx := lockManagerHarness(t, k, OneReadAllWrite())

	// Launch reader and writer together on different items; both must be
	// served (possibly in one performance, possibly two).
	var wg sync.WaitGroup
	var rGrant, wGrant bool
	var rErr, wErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		rGrant, rErr = RequestLock(ctx, in, "PR", "r", "itemA", false)
	}()
	go func() {
		defer wg.Done()
		wGrant, wErr = RequestLock(ctx, in, "PW", "w", "itemB", true)
	}()
	wg.Wait()
	if rErr != nil || wErr != nil {
		t.Fatalf("rErr=%v wErr=%v", rErr, wErr)
	}
	if !rGrant || !wGrant {
		t.Fatalf("grants: reader=%v writer=%v, want both", rGrant, wGrant)
	}
}

func TestMembershipChangeHandsOverTable(t *testing.T) {
	ctx := testCtx(t)
	in := core.NewInstance(MembershipChange())
	defer in.Close()

	table := locktable.NewTable()
	table.LockWrite("x", "owner-7")

	// One remaining manager observes; make sure it is pending before the
	// critical set {leaver, joiner} can commit.
	noteCh := make(chan any, 1)
	go func() {
		note, err := ObserveChange(ctx, in, "M2", 1)
		if err != nil {
			t.Errorf("observer: %v", err)
		}
		noteCh <- note
	}()
	for in.PendingOffers() < 1 {
		time.Sleep(time.Millisecond)
	}

	joinDone := make(chan any, 1)
	go func() {
		got, err := Join(ctx, in, "M9")
		if err != nil {
			t.Errorf("join: %v", err)
		}
		joinDone <- got
	}()
	if err := Leave(ctx, in, "M1", table, "M9 replaces M1"); err != nil {
		t.Fatal(err)
	}
	got := <-joinDone
	inherited, ok := got.(*locktable.Table)
	if !ok {
		t.Fatalf("joiner inherited %T", got)
	}
	if inherited.Holders("x").Writer != "owner-7" {
		t.Fatal("lock table was not preserved across the membership change")
	}
	if note := <-noteCh; note != "M9 replaces M1" {
		t.Fatalf("observer note = %v", note)
	}
}

func TestBarrierReleasesAllTogether(t *testing.T) {
	ctx := testCtx(t)
	const n = 5
	in := core.NewInstance(Barrier(n))
	defer in.Close()

	arrived := make(chan int, n)
	released := make(chan int, n)
	for i := 1; i <= n; i++ {
		i := i
		go func() {
			arrived <- i
			if err := Await(ctx, in, ids.PID(fmt.Sprintf("P%d", i)), i); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
			released <- i
		}()
		// Nobody may be released while some party is missing.
		if i < n {
			select {
			case r := <-released:
				t.Fatalf("party %d released before all arrived", r)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	for i := 0; i < n; i++ {
		<-released
	}
}

func TestScatterGatherComputes(t *testing.T) {
	ctx := testCtx(t)
	const n = 4
	in := core.NewInstance(ScatterGather(n))
	defer in.Close()

	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := Work(ctx, in, ids.PID(fmt.Sprintf("W%d", i)), i, func(v any) any {
				return v.(int) * i // worker i multiplies by its index
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}()
	}
	results, err := Scatter(ctx, in, "C", 10, 10, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if results[i] != 10*(i+1) {
			t.Fatalf("results = %v", results)
		}
	}
}

func TestScatterGatherWrongItemCount(t *testing.T) {
	ctx := testCtx(t)
	in := core.NewInstance(ScatterGather(2))
	defer in.Close()
	for i := 1; i <= 2; i++ {
		i := i
		go func() { _ = Work(ctx, in, ids.PID(fmt.Sprintf("W%d", i)), i, func(v any) any { return v }) }()
	}
	if _, err := Scatter(ctx, in, "C", 1); err == nil {
		t.Fatal("wrong item count must fail")
	}
	in.Close()
}

func TestBoundedBufferStreamsInOrder(t *testing.T) {
	for _, capacity := range []int{1, 2, 8, 0} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			ctx := testCtx(t)
			in := core.NewInstance(BoundedBuffer(capacity))
			defer in.Close()

			items := make([]any, 20)
			for i := range items {
				items[i] = i
			}
			go func() {
				if err := Produce(ctx, in, "P", items...); err != nil {
					t.Errorf("produce: %v", err)
				}
			}()
			go func() {
				if err := RunBuffer(ctx, in, "B"); err != nil {
					t.Errorf("buffer: %v", err)
				}
			}()
			got, err := Consume(ctx, in, "C")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(items) {
				t.Fatalf("consumed %d items, want %d", len(got), len(items))
			}
			for i := range items {
				if got[i] != items[i] {
					t.Fatalf("item %d = %v (reordered)", i, got[i])
				}
			}
		})
	}
}

func TestBoundedBufferEmptyStream(t *testing.T) {
	ctx := testCtx(t)
	in := core.NewInstance(BoundedBuffer(2))
	defer in.Close()
	go func() { _ = Produce(ctx, in, "P") }()
	go func() { _ = RunBuffer(ctx, in, "B") }()
	got, err := Consume(ctx, in, "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("consumed %v from empty stream", got)
	}
}

func TestLockManagerManyRounds(t *testing.T) {
	// Lock/release cycles across many successive performances.
	const k = 3
	in, ctx := lockManagerHarness(t, k, OneReadAllWrite())
	for round := 0; round < 10; round++ {
		item := fmt.Sprintf("item%d", round%2)
		g, err := RequestLock(ctx, in, "P", "owner", item, round%2 == 0)
		if err != nil || !g {
			t.Fatalf("round %d: %v %v", round, g, err)
		}
		if err := ReleaseLock(ctx, in, "P", "owner", item, round%2 == 0); err != nil {
			t.Fatalf("round %d release: %v", round, err)
		}
	}
}

// readRequests returns a function that runs one read request — a whole
// performance of Figure 5's script with three resident managers, the
// `local_lock` workload's unit of work — warmed up by one call, which makes
// the fabric's cells and sizes the instance's matcher scratch.
func readRequests(t *testing.T) func() {
	in, ctx := lockManagerHarness(t, 3, OneReadAllWrite())
	request := func() {
		if granted, err := RequestLock(ctx, in, "P", "owner", "item", false); err != nil || !granted {
			t.Errorf("read lock: granted=%v err=%v", granted, err)
		}
	}
	request()
	return request
}

// TestLockRequestAllocs gates what one read request costs in objects. What
// is left, and why: the four enrollment records (not recycled: the host's
// bridge, Result.Values and late co-performers may still read one after its
// Enroll returned — DESIGN.md "Scheduler internals"); the performance, its
// cast table and its done channel (closed to release the held roles, so not
// reusable); the client's argument list and the two boxed copies of its
// request (the caller's and the body's, both part of the script's interface);
// and the list of managers that granted. Gone since the gate read 36: the
// four wake-up channels (pooled), the matcher's scratch (kept by the
// instance), the managers' four branch lists and argument lists (built once),
// the per-enrollment copy of a single argument (kept in the record), and the
// fabric's cell lists (the instance keeps its fabric, and the fabric its
// declared endpoints' cells, from one performance to the next).
func TestLockRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	request := readRequests(t)
	// 12 measured, plus 10%; 14 while every performance re-made its cells, 33
	// before alternatives were built once, wake-ups pooled and the matcher's
	// scratch kept; 62 before the pooled slot.
	if got := testing.AllocsPerRun(1000, request); got > 13 {
		t.Fatalf("one read request allocates %v objects, want <= 13", got)
	}
}

// TestLockRequestBytes gates the same request in bytes, the unit the
// collector is paid in: it runs once per so many bytes of garbage, whatever
// the number of objects, so this — not the count above — is what
// `local_lock`'s throughput follows. Of the 1.8 KB left, 1 150 are the four
// 288-byte enrollment records, 420 the performance with its table and
// channel; the rest is the list above.
func TestLockRequestBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	request := readRequests(t)
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		request()
	}
	runtime.ReadMemStats(&after)
	// 1 731 measured, plus 10%; 1 768 with per-performance cells, 4 320 before
	// alternatives were built once.
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > 1900 {
		t.Fatalf("one read request allocates %.0f bytes, want <= 1900", got)
	}
}

// TestStarPerformanceAllocs gates what one Figure 3 broadcast to 24 resident
// recipients costs in objects — the `local_star` workload's unit of work —
// since a performance's cast became a table indexed by role slot, the
// matcher handed the cast over as offer indices on a scratch the instance
// keeps, a role's first two results stayed in its enrollment record, and
// wake-up channels came from a pool. What is left is an enrollment record per
// role (25, never recycled: see TestLockRequestAllocs), the performance with
// its table and done channel, the sender's role and endpoint lists and the
// boxed value. The fabric's cell lists (23) went when the instance began to
// keep its fabric, and the fabric its declared endpoints' cells.
func TestStarPerformanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 24
	in := core.NewInstance(StarBroadcast(n))
	ctx, cancel := context.WithCancel(testCtx(t))
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		pid := ids.PID(fmt.Sprintf("R%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := EnrollRecipient[int](ctx, in, pid, i); err != nil {
					return
				}
			}
		}()
	}
	broadcast := func() {
		if err := EnrollSender(ctx, in, "T", 1<<20); err != nil {
			t.Error(err)
		}
	}
	broadcast() // the first performance makes the fabric's cells
	got := testing.AllocsPerRun(500, broadcast)
	cancel()
	in.Close()
	wg.Wait()
	// 33 measured, plus 10%; 56 with per-performance cells, 89 before wake-ups
	// were pooled and the matcher's scratch kept, 120 before the cast table.
	if got > 36 {
		t.Fatalf("one broadcast to %d recipients allocates %v objects, want <= 36", n, got)
	}
}
