package rendezvous

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// recorder is a Completer that keeps every outcome it is told, and checks
// that it is told with the fabric's lock free and, when lock is set, that
// lock free too: the caller's lock a completer may take (the script
// runtime's instance lock).
type recorder struct {
	f    *Fabric
	lock *sync.Mutex

	mu       sync.Mutex
	outs     []IDOutcome
	errs     []error
	underF   bool // told while the fabric's lock was held
	underIn  bool // told while lock was held
	reported chan struct{}
}

func newRecorder(f *Fabric, lock *sync.Mutex) *recorder {
	return &recorder{f: f, lock: lock, reported: make(chan struct{}, 16)}
}

func (r *recorder) Complete(out IDOutcome, err error) {
	free := r.f.mu.TryLock()
	if free {
		r.f.mu.Unlock()
	}
	in := true
	if r.lock != nil && r.lock.TryLock() {
		r.lock.Unlock()
		in = false
	}
	r.mu.Lock()
	r.outs, r.errs = append(r.outs, out), append(r.errs, err)
	r.underF = r.underF || !free
	r.underIn = r.underIn || (r.lock != nil && in)
	r.mu.Unlock()
	r.reported <- struct{}{}
}

// await waits for the recorder's next outcome.
func (r *recorder) await(t *testing.T, what string) {
	t.Helper()
	select {
	case <-r.reported:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the completer was never told", what)
	}
}

// once checks, after await, that the recorder was told exactly one outcome,
// under neither lock, and returns it.
func (r *recorder) once(t *testing.T, what string) (IDOutcome, error) {
	t.Helper()
	select {
	case <-r.reported: // a second outcome would land here
		t.Fatalf("%s: the completer was told more than once", what)
	case <-time.After(20 * time.Millisecond):
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case len(r.outs) != 1:
		t.Fatalf("%s: the completer was told %d times, want once", what, len(r.outs))
	case r.underF:
		t.Fatalf("%s: the completer ran under the fabric's lock", what)
	case r.underIn:
		t.Fatalf("%s: the completer ran under its caller's lock", what)
	}
	return r.outs[0], r.errs[0]
}

// TestPostCommittedByABlockingOp: a posted op waits in the fabric with no
// goroutine, and the blocking op that commits it tells its completer, in
// each lane: a point op parked in its cell, an alternative posted in the
// slow lane, and a Scatter's offers.
func TestPostCommittedByABlockingOp(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		f, ctx := New(), ctxT(t)
		f.Declare("P", "Q")
		r := newRecorder(f, nil)
		f.PostDoID(context.Background(), 0, []IDBranch{{Dir: DirRecv, Peer: 1, Tag: "t"}}, r)
		waitPending(t, f, 1)
		if err := f.SendID(ctx, 1, 0, "t", 42); err != nil {
			t.Fatal(err)
		}
		r.await(t, "fast")
		if out, err := r.once(t, "fast"); err != nil || out.Val != 42 || out.Peer != 1 {
			t.Fatalf("posted receive: %+v, %v; want 42 from Q", out, err)
		}
		if n := f.FastCommits(); n != 1 {
			t.Fatalf("%d fast commits, want the one", n)
		}
	})
	t.Run("slow", func(t *testing.T) {
		f, ctx := New(), ctxT(t)
		f.Declare("P", "Q", "R")
		r := newRecorder(f, nil)
		f.PostDoID(context.Background(), 0, []IDBranch{{Dir: DirRecv, Peer: 1, Tag: "t"}, {Dir: DirRecv, Peer: 2, Tag: "t"}}, r)
		waitPending(t, f, 2)
		if err := f.SendID(ctx, 2, 0, "t", "r"); err != nil {
			t.Fatal(err)
		}
		r.await(t, "slow")
		if out, err := r.once(t, "slow"); err != nil || out.Index != 1 || out.Val != "r" {
			t.Fatalf("posted alternative: %+v, %v; want branch 1 with R's value", out, err)
		}
		checkPosted(t, f, "after the commit", 0)
	})
	t.Run("scatter", func(t *testing.T) {
		f, ctx := New(), ctxT(t)
		f.Declare("S", "A", "B", "C")
		r := newRecorder(f, nil)
		f.PostScatterID(context.Background(), 0, "t", []ID{1, 2, 3}, []any{7}, r)
		for id := ID(1); id <= 3; id++ {
			if v, err := f.RecvID(ctx, id, 0, "t"); err != nil || v != 7 {
				t.Fatalf("recipient %d: %v, %v", id, v, err)
			}
		}
		r.await(t, "scatter")
		if _, err := r.once(t, "scatter"); err != nil {
			t.Fatalf("posted scatter: %v", err)
		}
	})
}

// TestBlockingOpCommittedByAPost is the reverse: a blocking op waits, and an
// op posted to meet it commits it on the way in — its completer told before
// PostDoID returns, the waiter woken — in each lane.
func TestBlockingOpCommittedByAPost(t *testing.T) {
	cases := map[string]struct {
		post func(f *Fabric, r *recorder)
		recv []ID // the blocking receivers, each of S
	}{
		"fast": {func(f *Fabric, r *recorder) {
			f.PostDoID(context.Background(), 0, []IDBranch{{Dir: DirSend, Peer: 1, Tag: "t", Val: 9}}, r)
		}, []ID{1}},
		"slow": {func(f *Fabric, r *recorder) {
			f.PostDoID(context.Background(), 0, []IDBranch{{Dir: DirSend, Peer: 1, Tag: "t", Val: 9}, {Dir: DirSend, Peer: 2, Tag: "u", Val: 9}}, r)
		}, []ID{1}},
		"scatter": {func(f *Fabric, r *recorder) {
			f.PostScatterID(context.Background(), 0, "t", []ID{1, 2}, []any{9}, r)
		}, []ID{1, 2}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			f, ctx := New(), ctxT(t)
			f.Declare("S", "A", "B")
			got := make(chan any, len(tc.recv))
			for _, id := range tc.recv {
				go func() {
					v, err := f.RecvID(ctx, id, 0, "t")
					if err != nil {
						v = err
					}
					got <- v
				}()
			}
			waitPending(t, f, len(tc.recv))
			r := newRecorder(f, nil)
			tc.post(f, r)
			select {
			case <-r.reported:
			default:
				t.Fatal("the post committed with a waiting receiver, but its completer was not told before it returned")
			}
			if _, err := r.once(t, name); err != nil {
				t.Fatalf("post: %v", err)
			}
			for range tc.recv {
				if v := <-got; v != 9 {
					t.Fatalf("receiver: %v, want 9", v)
				}
			}
		})
	}
}

// evictAll is a FastFaults that evicts every parked op.
type evictAll struct{}

func (evictAll) FastDelay() time.Duration { return time.Second } // never slept by a post
func (evictAll) FastEvict() bool          { return true }

// TestPostEscalatedByEviction: a posted op evicted from its cell by the
// FastFaults chaos takes its slot to the slow lane, without sleeping the
// poster, and its completer is told once when a blocking op meets it there.
func TestPostEscalatedByEviction(t *testing.T) {
	f, ctx := New(), ctxT(t)
	f.Declare("P", "Q")
	f.SetFastFaults(evictAll{})
	r := newRecorder(f, nil)
	start := time.Now()
	f.PostDoID(context.Background(), 0, []IDBranch{{Dir: DirRecv, Peer: 1, Tag: "t"}}, r)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("the post took %v: the fast lane's delay slept the poster", d)
	}
	checkPosted(t, f, "evicted to the slow lane", 1)
	if err := f.SendID(ctx, 1, 0, "t", "x"); err != nil {
		t.Fatal(err)
	}
	r.await(t, "evicted")
	if out, err := r.once(t, "evicted"); err != nil || out.Val != "x" {
		t.Fatalf("evicted post: %+v, %v", out, err)
	}
}

// TestCompleterToldOnceAfterTheLocks: TerminateID, Abort and Close fail a
// posted op — parked in its cell, or posted in the slow lane — exactly once,
// and not under the fabric's lock: the failure is returned to the caller,
// which pays it once it has let go of a lock of its own that the completer
// takes. The completer's TryLock would find that lock held had the fabric
// paid it inside the call.
func TestCompleterToldOnceAfterTheLocks(t *testing.T) {
	ends := map[string]struct {
		end  func(f *Fabric) Owed
		want error
	}{
		"terminate": {func(f *Fabric) Owed { return f.TerminateID(1) }, ErrPeerTerminated},
		"abort":     {func(f *Fabric) Owed { return f.Abort(nil) }, ErrAborted},
		"close":     {func(f *Fabric) Owed { return f.Close() }, ErrClosed},
	}
	lanes := map[string][]IDBranch{
		"parked": {{Dir: DirRecv, Peer: 1, Tag: "t"}},
		"posted": {{Dir: DirRecv, Peer: 1, Tag: "t"}, {Dir: DirRecv, Peer: 1, Tag: "u"}},
	}
	for name, tc := range ends {
		for lane, alt := range lanes {
			t.Run(name+"/"+lane, func(t *testing.T) {
				f := New()
				f.Declare("P", "Q")
				var in sync.Mutex
				r := newRecorder(f, &in)
				f.PostDoID(context.Background(), 0, alt, r)
				waitPending(t, f, len(alt))
				in.Lock()
				owed := tc.end(f)
				if len(owed) != 1 {
					in.Unlock()
					t.Fatalf("%d outcomes owed, want the posted op's", len(owed))
				}
				select {
				case <-r.reported:
					in.Unlock()
					t.Fatal("the completer was told inside the call")
				default:
				}
				in.Unlock()
				owed.Pay()
				r.await(t, name)
				if _, err := r.once(t, name); !errors.Is(err, tc.want) {
					t.Fatalf("posted op failed with %v, want %v", err, tc.want)
				}
				checkPosted(t, f, "after the failure", 0)
				if again := tc.end(f); len(again) != 0 {
					t.Fatalf("a second %s owed %d outcomes", name, len(again))
				}
			})
		}
	}
}

// TestPostWithdrawnWhenItsContextEnds: a posted op whose context can end is
// withdrawn by its end, from its cell or from the slow lane, and its
// completer told ctx.Err() once — a posted Scatter's offers too; a commit
// that came first wins, and the late end changes nothing.
func TestPostWithdrawnWhenItsContextEnds(t *testing.T) {
	for lane, alt := range map[string][]IDBranch{
		"parked": {{Dir: DirRecv, Peer: 1, Tag: "t"}},
		"posted": {{Dir: DirRecv, Peer: 1, Tag: "t"}, {Dir: DirRecv, Peer: 1, Tag: "u"}},
	} {
		t.Run(lane, func(t *testing.T) {
			f := New()
			f.Declare("P", "Q")
			ctx, cancel := context.WithCancel(context.Background())
			r := newRecorder(f, nil)
			f.PostDoID(ctx, 0, alt, r)
			waitPending(t, f, len(alt))
			cancel()
			r.await(t, lane)
			if _, err := r.once(t, lane); !errors.Is(err, context.Canceled) {
				t.Fatalf("withdrawn post: %v, want context.Canceled", err)
			}
			if n := f.PendingCount(); n != 0 {
				t.Fatalf("%d ops still pending after the withdrawal", n)
			}
		})
	}
	// A posted Scatter's offer is withdrawn from the lane it waits in: the
	// target never receives the value the Scatter reports not sent, and the
	// Scatter completes once.
	for lane, opts := range map[string][]Option{"scatter/parked": nil, "scatter/posted": {WithoutFastPath()}} {
		t.Run(lane, func(t *testing.T) {
			f := New(opts...)
			f.Declare("S", "A")
			ctx, cancel := context.WithCancel(context.Background())
			r := newRecorder(f, nil)
			f.PostScatterID(ctx, 0, "t", []ID{1}, []any{7}, r)
			parked, posted := f.table()[1].parked.Load(), f.PendingCount()
			if opts == nil && parked != 1 || opts != nil && (parked != 0 || posted != 1) {
				t.Fatalf("the offer is not where the lane puts it: %d parked, %d pending", parked, posted)
			}
			cancel()
			r.await(t, lane)
			rctx, rcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer rcancel()
			if v, err := f.RecvID(rctx, 1, 0, "t"); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("the target received %v, %v after the withdrawal", v, err)
			}
			if _, err := r.once(t, lane); !errors.Is(err, context.Canceled) {
				t.Fatalf("withdrawn scatter: %v, want context.Canceled", err)
			}
			if n := f.PendingCount(); n != 0 {
				t.Fatalf("%d ops still pending after the withdrawal", n)
			}
		})
	}
	t.Run("committed first", func(t *testing.T) {
		f, tctx := New(), ctxT(t)
		f.Declare("P", "Q")
		ctx, cancel := context.WithCancel(context.Background())
		r := newRecorder(f, nil)
		f.PostDoID(ctx, 0, []IDBranch{{Dir: DirRecv, Peer: 1, Tag: "t"}}, r)
		if err := f.SendID(tctx, 1, 0, "t", 1); err != nil {
			t.Fatal(err)
		}
		r.await(t, "commit")
		cancel()
		if out, err := r.once(t, "committed first"); err != nil || out.Val != 1 {
			t.Fatalf("post: %+v, %v; want the commit", out, err)
		}
	})
}
