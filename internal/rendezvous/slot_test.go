package rendezvous

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// token is what the stress test sends: who offered it, and which of that
// owner's branches it was.
type token struct {
	owner Addr
	seq   int
}

// Both lanes take their group, result channel and ops from one pool of slots
// and hand them back as soon as the owner has its result, so a slot goes from
// one owner — and one fabric — to the next within microseconds. If anything
// in a fabric still looked at a slot after delivering to it, an op would get
// another op's outcome or error. Many owners post 1–5-branch alternatives
// (one branch takes the fast lane) whose values name their sender; a third of
// the ops are withdrawn by their context at a random point and one fabric in
// ten is aborted half way; an owner that is through terminates its address,
// as a role does, which fails the alternatives left with no live partner.
// Every Do must return a branch of its own with its partner's token, or an
// error of its own, and every token sent must have been received exactly
// once.
func TestSlotsNeverCrossOwners(t *testing.T) {
	const fabrics, owners, opsPerOwner = 10, 8, 60
	addrs := make([]Addr, owners)
	for i := range addrs {
		addrs[i] = Addr(fmt.Sprintf("P%d", i))
	}
	var all sync.WaitGroup
	defer all.Wait()
	for fi := 0; fi < fabrics; fi++ {
		all.Add(1)
		go func() { // the fabrics run side by side, so slots cross between them
			defer all.Done()
			stressFabric(t, fi, addrs, opsPerOwner)
		}()
	}
}

// stressFabric is one fabric's share of TestSlotsNeverCrossOwners; fabric 7
// of every ten is aborted half way through its ops.
func stressFabric(t *testing.T, fi int, addrs []Addr, opsPerOwner int) {
	owners := len(addrs)
	f := New()
	errAbort := fmt.Errorf("fabric %d aborted", fi)
	abortAt := int64(-1)
	if fi%10 == 7 {
		abortAt = int64(owners * opsPerOwner / 2)
	}
	var (
		ops, gone  atomic.Int64
		mu         sync.Mutex
		sent, rcvd = map[token]int{}, map[token]int{}
		wg         sync.WaitGroup
	)
	for oi, me := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(fi*owners + oi)))
			for seq := 0; seq < opsPerOwner; seq++ {
				if ops.Add(1) == abortAt {
					f.Abort(errAbort)
				}
				brs := make([]Branch, 1+rng.Intn(5))
				for j := range brs {
					peer := me
					for peer == me {
						peer = addrs[rng.Intn(owners)]
					}
					brs[j] = Branch{Dir: Dir(1 + rng.Intn(2)), Peer: peer, Tag: "t"}
					if brs[j].Dir == DirSend {
						brs[j].Val = token{me, seq*8 + j}
					}
				}
				// Every op ends by its context if nothing else ends it: a
				// third at a random point within 200µs, the rest after 5 ms
				// (all eight owners may be offering sends at once).
				after := 5 * time.Millisecond
				if rng.Intn(3) == 0 {
					after = time.Duration(rng.Intn(200)) * time.Microsecond
				}
				ctx, cancel := context.WithTimeout(context.Background(), after)
				out, err := f.Do(ctx, me, brs)
				switch {
				case err == nil && (out.Index < 0 || out.Index >= len(brs)):
					t.Errorf("%s op %d: committed branch %d of %d", me, seq, out.Index, len(brs))
				case err == nil:
					br := brs[out.Index]
					tok, isTok := out.Val.(token)
					switch {
					case out.Peer != br.Peer || out.Tag != br.Tag:
						t.Errorf("%s op %d: branch %+v committed as %+v", me, seq, br, out)
					case br.Dir == DirSend && out.Val != nil:
						t.Errorf("%s op %d: a send came back with value %v", me, seq, out.Val)
					case br.Dir == DirRecv && (!isTok || tok.owner != br.Peer):
						t.Errorf("%s op %d: received %v from %s", me, seq, out.Val, br.Peer)
					}
					mu.Lock()
					if br.Dir == DirSend {
						sent[br.Val.(token)]++
					} else {
						rcvd[tok]++
					}
					mu.Unlock()
				case errors.Is(err, errAbort) && abortAt >= 0:
				case errors.Is(err, ErrPeerTerminated) && gone.Load() > 0:
				case ctx.Err() != nil && errors.Is(err, ctx.Err()):
				default:
					t.Errorf("%s op %d: error %v is none of its own", me, seq, err)
				}
				cancel()
			}
			gone.Add(1)
			f.Terminate(me)
		}()
	}
	wg.Wait()
	if n := f.PendingCount(); n != 0 {
		t.Errorf("fabric %d: %d ops pending at the end", fi, n)
	}
	for tok, n := range sent {
		if n != 1 || rcvd[tok] != 1 {
			t.Errorf("fabric %d: %+v sent %d times, received %d times", fi, tok, n, rcvd[tok])
		}
	}
	if len(rcvd) != len(sent) {
		t.Errorf("fabric %d: %d tokens received, %d sent", fi, len(rcvd), len(sent))
	}
	if len(sent) == 0 {
		t.Errorf("fabric %d: nothing committed", fi)
	}
}

// The walks that fail many groups at once — Abort, Close, Terminate — meet a
// three-branch alternative three times, and its owner frees the slot the
// moment the failure is delivered: each walk must be done with a group, and
// with every op of it, before it delivers. (Looking again finds the slot
// cleared, or already serving an op of the fabric next door.)
func TestFailingAnAlternativeTouchesItOnce(t *testing.T) {
	ctx := ctxT(t)
	for name, tc := range map[string]struct {
		fail func(*Fabric)
		want error
	}{
		"abort":           {func(f *Fabric) { f.Abort(nil) }, ErrAborted},
		"close":           {func(f *Fabric) { f.Close() }, ErrClosed},
		"terminate owner": {func(f *Fabric) { f.Terminate("P") }, ErrSelfTerminated},
		"terminate peer":  {func(f *Fabric) { f.Terminate("A") }, ErrPeerTerminated},
	} {
		for i := 0; i < 100; i++ {
			f, next := New(), New()
			done := make(chan error, 1)
			go func() {
				_, err := f.Do(ctx, "P", []Branch{
					{Dir: DirRecv, Peer: "A", Tag: "x"}, {Dir: DirRecv, Peer: "A", Tag: "y"}, {Dir: DirSend, Peer: "A", Tag: "z"},
				})
				done <- err
				// The freed slot goes straight to an op next door.
				next.Do(ctx, "P", []Branch{{Dir: DirRecv, Peer: "A", Tag: "x"}, {Dir: DirRecv, Peer: "B", Tag: "x"}}) //nolint:errcheck
			}()
			waitPending(t, f, 3)
			tc.fail(f)
			if err := <-done; !errors.Is(err, tc.want) {
				t.Fatalf("%s: Do = %v, want %v", name, err, tc.want)
			}
			waitPending(t, next, 2)
			next.Close()
		}
	}
}

// An op escalated out of its cell brings its slot to the slow lane with the
// op still in it. If the slow lane then posts nothing — the peer terminated
// in between — the slot must not go back to the pool holding the caller's
// value.
func TestEscalatedOpIsClearedWhenNothingIsPosted(t *testing.T) {
	f := New()
	P, A := f.intern("P"), f.intern("A")
	br := IDBranch{Dir: DirSend, Peer: A.id, Tag: "x", Val: new(int)}
	s := getSlot()
	o := s.newOp(P, A, &br, 0)
	f.Terminate("A")
	if left, err := f.postSlow(P, []IDBranch{br}, s, 1, nil, new(IDOutcome)); left != nil || !errors.Is(err, ErrPeerTerminated) {
		t.Fatalf("postSlow = %v, want ErrPeerTerminated and the slot released", err)
	}
	if o.val != nil || o.g != nil || o.owner != nil {
		t.Fatalf("released slot still holds the escalated op: %+v", *o)
	}
}

// TestSlowLaneDoAllocs gates what one committed alternative costs in
// objects: a three-branch guarded receive met by a directed send (which the
// receiver's posted group sends through the slow lane too), the loop
// `rendezvous.select3_slow_ns` times. Both sides take their group, result
// channel and ops from the slot pool, so the count is zero but for a pool
// refill after a collection; before the shared slot it was 12 (a group, a
// channel, an op per branch, the candidate list and the index growth, a side).
func TestSlowLaneDoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	f := New()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f.Send(ctx, "S1", "P", "t", 1) == nil {
		}
	}()
	branches := []Branch{
		{Dir: DirRecv, Peer: "S1", Tag: "t"},
		{Dir: DirRecv, Peer: "S2", Tag: "t"},
		{Dir: DirRecv, Peer: "S3", Tag: "t"},
	}
	got := testing.AllocsPerRun(2000, func() {
		if _, err := f.Do(ctx, "P", branches); err != nil {
			t.Error(err)
		}
	})
	cancel()
	<-done
	if got > 4 {
		t.Fatalf("a committed three-branch Do and its sender allocate %v objects, want <= 4 (2 a side)", got)
	}
}
