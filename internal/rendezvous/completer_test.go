package rendezvous

import (
	"context"
	"errors"
	"fmt"
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
		f.PostDoID(0, []IDBranch{{Dir: DirRecv, Peer: 1, Tag: "t"}}, r)
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
		f.PostDoID(0, []IDBranch{{Dir: DirRecv, Peer: 1, Tag: "t"}, {Dir: DirRecv, Peer: 2, Tag: "t"}}, r)
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
		f.PostScatterID(0, "t", []ID{1, 2, 3}, []any{7}, r)
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
			f.PostDoID(0, []IDBranch{{Dir: DirSend, Peer: 1, Tag: "t", Val: 9}}, r)
		}, []ID{1}},
		"slow": {func(f *Fabric, r *recorder) {
			f.PostDoID(0, []IDBranch{{Dir: DirSend, Peer: 1, Tag: "t", Val: 9}, {Dir: DirSend, Peer: 2, Tag: "u", Val: 9}}, r)
		}, []ID{1}},
		"scatter": {func(f *Fabric, r *recorder) {
			f.PostScatterID(0, "t", []ID{1, 2}, []any{9}, r)
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
	f.PostDoID(0, []IDBranch{{Dir: DirRecv, Peer: 1, Tag: "t"}}, r)
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
				f.PostDoID(0, alt, r)
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

// doneChan is a Completer that passes each outcome's error on.
type doneChan chan error

func (d doneChan) Complete(_ IDOutcome, err error) { d <- err }

// TestPostAllocs gates what a posted op costs in objects, in each lane: a
// round is one PostDoID of a send, or one PostScatterID to 24 targets, and
// the blocking receives that commit it. A posted op only ever takes a pooled
// slot, released by whoever delivers its outcome, and a posted Scatter a
// pooled table, so the count is zero.
func TestPostAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	lanes := map[string][]Option{"fast": nil, "slow": {WithoutFastPath()}}
	for _, n := range []int{1, 24} {
		for lane, opts := range lanes {
			name := "do/" + lane
			if n > 1 {
				name = fmt.Sprintf("scatter%d/%s", n, lane)
			}
			t.Run(name, func(t *testing.T) {
				f := New(opts...)
				f.Declare("S")
				targets := make([]ID, n)
				for i := range targets {
					targets[i] = f.Endpoint(Addr(fmt.Sprintf("R%d", i)))
				}
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				for _, id := range targets {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							if _, err := f.RecvID(ctx, id, 0, "t"); err != nil {
								return
							}
						}
					}()
				}
				done := make(doneChan, 1)
				send := []IDBranch{{Dir: DirSend, Peer: targets[0], Tag: "t", Val: 1}}
				vals := []any{1}
				got := testing.AllocsPerRun(500, func() {
					if n == 1 {
						f.PostDoID(0, send, done)
					} else {
						f.PostScatterID(0, "t", targets, vals, done)
					}
					if err := <-done; err != nil {
						t.Error(err)
					}
				})
				cancel()
				wg.Wait()
				if got != 0 {
					t.Fatalf("%s and its receives allocate %v objects, want 0", name, got)
				}
			})
		}
	}
}
