package rendezvous

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// --- exact parked counts: nothing parked beside a scatter is overlooked ------

// filterSlots is where the hashed parked-op filter this package used to keep
// (256 counters, two per address: FNV-1a and a multiplicative mix of it)
// counted address a. The tests below use it only to pick names that collided
// there: Scatter raised its owner's two counters in one batched add after its
// target loop while receivers lowered them commit by commit, so an address
// sharing a counter with a scatterer in flight, with as many ops parked
// against it as the scatter had had committed, read zero — and Terminate and
// TerminateAbsent, trusting the zero, skipped it. The counts are per endpoint
// now and raised inside each park's critical section.
func filterSlots(a Addr) [2]uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint32(a[i])) * 16777619
	}
	return [2]uint32{h & 255, (h * 2654435761) >> 16 & 255}
}

func slotsMeet(a, b Addr) bool {
	x, y := filterSlots(a), filterSlots(b)
	return x[0] == y[0] || x[0] == y[1] || x[1] == y[0] || x[1] == y[1]
}

// besideScatter runs park and then body on a fresh fabric, body while "S" is
// inside a scatter to thousands of targets of which the first k have just
// committed. victim is an address that shared a filter counter with "S", and
// the spare addresses shared none with the victim; park parks k ops that
// involve the victim and returns when they are pending. The whole is done
// attempts times: whether body runs before the scatter's target loop has
// ended is up to the scheduler, and the old hazard needed it to.
func besideScatter(t *testing.T, k int, park, body func(f *Fabric, victim Addr, spare []Addr)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const targets, attempts = 4096, 10
	var victim Addr
	for i := 0; victim == ""; i++ {
		if a := Addr(fmt.Sprintf("x%d", i)); slotsMeet(a, "S") {
			victim = a
		}
	}
	var clean []Addr
	for i := 0; len(clean) < 8+targets; i++ {
		if a := Addr(fmt.Sprintf("r%d", i)); !slotsMeet(a, victim) {
			clean = append(clean, a)
		}
	}
	spare, to := clean[:8], clean[8:]
	ctx := ctxT(t)
	for n := 0; n < attempts && !t.Failed(); n++ {
		f := New()
		park(f, victim, spare)
		sctx, cancel := context.WithCancel(ctx)
		scattered := make(chan struct{})
		go func() {
			defer close(scattered)
			f.Scatter(sctx, "S", "", to, []any{1}) //nolint:errcheck
		}()
		for f.PendingCount() < 2*k { // the first k offers are parked
			runtime.Gosched()
		}
		for i := 0; i < k; i++ {
			if _, err := f.Recv(ctx, to[i], "S", ""); err != nil {
				t.Errorf("Recv of offer %d: %v", i, err)
			}
		}
		body(f, victim, spare)
		cancel()
		<-scattered
		f.Close()
	}
}

// An op parked against an address must fail when the address terminates,
// whatever else is going on in the fabric.
func TestTerminateFailsOpParkedBesideScatter(t *testing.T) {
	ctx := ctxT(t)
	sent := make(chan error, 1)
	besideScatter(t, 1, func(f *Fabric, victim Addr, spare []Addr) {
		go func() { sent <- f.Send(ctx, spare[0], victim, "t", 1) }()
		waitPending(t, f, 1)
	}, func(f *Fabric, victim Addr, _ []Addr) {
		f.Terminate(victim)
		select {
		case err := <-sent:
			if !errors.Is(err, ErrPeerTerminated) {
				t.Errorf("send to the terminated address = %v, want ErrPeerTerminated", err)
			}
		case <-time.After(2 * time.Second):
			t.Error("the op parked against the terminated address stayed parked")
		}
	})
}

// An address that owns a parked op is alive, whatever isLive says of it:
// TerminateAbsent must leave it, and its op, alone.
func TestTerminateAbsentSparesOwnerParkedBesideScatter(t *testing.T) {
	ctx := ctxT(t)
	sent := make(chan error, 1)
	besideScatter(t, 2, func(f *Fabric, victim Addr, spare []Addr) {
		go func() { sent <- f.Send(ctx, victim, spare[0], "t", 1) }() // the victim's own op
		go f.Recv(ctx, spare[1], victim, "u")                         //nolint:errcheck // and one that makes it a target
		waitPending(t, f, 2)
	}, func(f *Fabric, victim Addr, spare []Addr) {
		f.TerminateAbsent(func(a Addr) bool { return a != victim })
		if f.Terminated(victim) {
			t.Error("TerminateAbsent terminated an address that owns a parked op")
		}
		if v, err := f.Recv(ctx, spare[0], victim, "t"); err != nil || v != 1 {
			t.Errorf("the owner's parked send was met with %v, %v, want 1", v, err)
		}
		if err := <-sent; err != nil {
			t.Errorf("the owner's parked send = %v", err)
		}
	})
}

// --- the endpoint table -------------------------------------------------------

// Declared endpoints keep their IDs, in order, and Endpoint hands further
// names the IDs after them.
func TestDeclareFixesIDs(t *testing.T) {
	f := New()
	f.Declare("a", "b", "c")
	for want, a := range []Addr{"a", "b", "c", "later", "b"} {
		if a == "b" {
			want = 1
		}
		if got := f.Endpoint(a); got != ID(want) {
			t.Fatalf("Endpoint(%q) = %d, want %d", a, got, want)
		}
	}
}

// One fabric serves the successive scopes of a fixed set of parties, as an
// instance's fabric serves its performances: each scope brings a different
// part of the declared cast plus some members of its own (an open family's),
// parks, posts, withdraws and terminates, and ends in Reset — or, one time in
// five, in Abort and Reset. After every Reset the fabric holds nothing of the
// scope (checkQuiescent), the table is the declared endpoints again, and the
// next scope's extras, which get the IDs the last one's had, meet nothing of
// theirs: every message delivered is one its own scope sent.
func TestDeclaredFabricServesScopesInTurn(t *testing.T) {
	const declared, scopes = 6, 60
	names := make([]Addr, declared)
	for i := range names {
		names[i] = Addr(fmt.Sprintf("role%d", i))
	}
	f := New()
	f.Declare(names...)
	rng := rand.New(rand.NewSource(20261001))
	ctx := ctxT(t)
	for scope := 0; scope < scopes; scope++ {
		// This scope's cast: some of the declared endpoints, and up to three
		// members whose names differ from scope to scope.
		var cast []ID
		for i := 0; i < declared; i++ {
			if rng.Intn(3) > 0 {
				cast = append(cast, ID(i))
			}
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			id := f.Endpoint(Addr(fmt.Sprintf("w[%d]", 1+rng.Intn(50))))
			if id < declared {
				t.Fatalf("scope %d: an undeclared name got declared ID %d", scope, id)
			}
			if !slices.Contains(cast, id) {
				cast = append(cast, id)
			}
		}
		if len(cast) < 2 {
			cast = []ID{0, 1}
		}
		hub, rest := cast[0], cast[1:]
		var wg sync.WaitGroup
		// Everybody sends the hub its scope number; the hub takes them by a
		// directed receive (fast lane), a two-branch alternative or an
		// any-peer receive (slow lane, draining its inbox), as drawn.
		for _, id := range rest {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.SendID(ctx, id, hub, "n", scope) //nolint:errcheck // an abort may fail it
			}()
		}
		// One op that can never commit, withdrawn before the scope ends, and
		// one left for the abort to fail if there is one.
		wctx, withdraw := context.WithCancel(ctx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.RecvID(wctx, rest[0], hub, "never") //nolint:errcheck
		}()
		abort := scope%5 == 4
		for unheard := slices.Clone(rest); len(unheard) > 0; {
			if abort && len(unheard) == 1+len(rest)/2 {
				f.Abort(errScript)
			}
			out := IDOutcome{Peer: unheard[0]}
			var err error
			switch rng.Intn(3) {
			case 0:
				out.Val, err = f.RecvID(ctx, hub, out.Peer, "n")
			case 1:
				out, err = f.DoID(ctx, hub, []IDBranch{{Dir: DirRecv, Peer: out.Peer, Tag: "n"}, {Dir: DirRecv, Peer: out.Peer, Tag: "other"}})
			default:
				out, err = f.DoID(ctx, hub, []IDBranch{{Dir: DirRecv, AnyPeer: true, Tag: "n"}})
			}
			switch {
			case err != nil && !(abort && errors.Is(err, errScript)):
				t.Fatalf("scope %d: hub receive: %v", scope, err)
			case err != nil:
				unheard = nil // aborted: nobody else will be heard
			case out.Val != scope:
				t.Fatalf("scope %d: the hub received %v, a message of another scope", scope, out.Val)
			default:
				unheard = slices.DeleteFunc(unheard, func(id ID) bool { return id == out.Peer })
			}
		}
		withdraw()
		wg.Wait()
		for _, id := range cast {
			f.TerminateID(id) // as a role does when its body returns
		}
		f.Reset()
		if err := f.checkQuiescent(); err != nil {
			t.Fatalf("scope %d: state survived Reset: %v", scope, err)
		}
		if n := len(f.table()); n != declared {
			t.Fatalf("scope %d: %d endpoints after Reset, want the %d declared", scope, n, declared)
		}
	}
}

// An inbox holds a bounded number of cells per sender however many tags the
// sender uses over the fabric's life, and delivery is unaffected.
func TestInboxBoundsCellsPerSender(t *testing.T) {
	f := New()
	f.Declare("A", "B")
	ctx := ctxT(t)
	for i := 0; i < 500; i++ {
		tag := Tag(fmt.Sprintf("request-%d", i))
		done := make(chan error, 1)
		go func() { done <- f.SendID(ctx, 0, 1, tag, i) }()
		if v, err := f.RecvID(ctx, 1, 0, tag); err != nil || v != i {
			t.Fatalf("Recv under %s = %v, %v", tag, v, err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := len(f.table()[1].cells); n > tagsKept {
		t.Fatalf("B's inbox holds %d cells for one sender, want at most %d", n, tagsKept)
	}
}

// --- one lock per inbox -----------------------------------------------------

// Thirty-two senders share one receiver's inbox, and so its mutex, with the
// receiver itself — which takes their messages by directed receives, by
// alternatives and by any-peer receives that drain the inbox into the slow
// lane — while a third of the sends are withdrawn at random points. Every
// value sent is received exactly once, in each sender's order. Run under
// -race with four processors.
func TestFanInToOneInbox(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const senders, each = 32, 200
	f := New()
	ctx := ctxT(t)
	names := make([]Addr, senders)
	for i := range names {
		names[i] = Addr(fmt.Sprintf("S%d", i))
	}
	f.Declare(append([]Addr{"R"}, names...)...)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for n := 0; n < each; {
				sctx, cancel := ctx, context.CancelFunc(func() {})
				if rng.Intn(3) == 0 {
					sctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(50))*time.Microsecond)
				}
				err := f.SendID(sctx, ID(s), 0, "t", n)
				cancel()
				switch {
				case err == nil:
					n++
				case sctx.Err() == nil || !errors.Is(err, sctx.Err()):
					t.Errorf("S%d send %d: %v", s, n, err)
					return
				}
			}
		}()
	}
	next := make([]int, senders+1)
	rng := rand.New(rand.NewSource(0))
	for got := 0; got < senders*each; got++ {
		var out IDOutcome
		var err error
		// Ask by name only those that still have something to send.
		from := ID(1 + rng.Intn(senders))
		for next[from] == each {
			from = from%senders + 1
		}
		switch rng.Intn(3) {
		case 0:
			out.Peer = from
			out.Val, err = f.RecvID(ctx, 0, from, "t")
		case 1:
			out, err = f.DoID(ctx, 0, []IDBranch{{Dir: DirRecv, Peer: from, Tag: "t"}, {Dir: DirRecv, Peer: from, Tag: "u"}})
		default:
			out, err = f.DoID(ctx, 0, []IDBranch{{Dir: DirRecv, AnyPeer: true, AnyTag: true}})
		}
		if err != nil {
			t.Fatalf("receive %d: %v", got, err)
		}
		if out.Val != next[out.Peer] {
			t.Fatalf("from S%d: got %v, want %d", out.Peer-1, out.Val, next[out.Peer])
		}
		next[out.Peer]++
	}
	wg.Wait()
	if n := f.PendingCount(); n != 0 {
		t.Fatalf("%d ops pending at the end", n)
	}
}
