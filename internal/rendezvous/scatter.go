package rendezvous

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/scriptabs/goscript/internal/ctxwatch"
)

// scatterSlot tracks one target's offer through a Scatter call, and is the
// offer's completer.
type scatterSlot struct {
	t  *scatterTable
	to *endpoint // the target; nil for one the caller did not name
	// fs is the backing storage of the offer while it is in the fabric (its
	// parked flag says in which lane), kept after the offer resolves for the
	// table's reap to release; nil for an offer that resolved on the way in.
	fs  *slot
	err error
}

// settle settles an offer that resolved on the way in with err: its storage,
// if it took any, goes back, and it is counted down — never the last count,
// as the post holds one.
func (s *scatterSlot) settle(err error) {
	if s.fs != nil {
		s.fs.release()
		s.fs = nil
	}
	s.err = err
	s.t.left.Add(-1)
}

// scatterTable is one Scatter call's offers, counted down in left: one for
// each offer that resolves, and one for the post itself. The last count wakes
// the poster of a blocking Scatter, or completes done for a posted one. entry
// withdraws a blocking Scatter's offers from f if its context ends (see
// await).
type scatterTable struct {
	slots []scatterSlot
	left  atomic.Int32
	wake  chan result // buffered 2; the last count of a blocking Scatter, and await's word
	done  Completer
	entry ctxwatch.Entry
	f     *Fabric
}

var scatterTblPool = sync.Pool{New: func() any {
	t := &scatterTable{slots: make([]scatterSlot, 0, 64), wake: make(chan result, 2)}
	t.entry.Func = t.fire
	return t
}}

// newScatterTable returns a pooled table of n cleared slots, counting n
// offers and the post. A broadcast-heavy role calls Scatter every
// performance, and a fresh n-slot table per call is the dominant allocation;
// entries hold no live references once every offer settles, which is when
// the table goes back.
func newScatterTable(n int) *scatterTable {
	t := scatterTblPool.Get().(*scatterTable)
	if cap(t.slots) < n {
		t.slots = make([]scatterSlot, n)
	}
	t.slots = t.slots[:n]
	clear(t.slots)
	for i := range t.slots {
		t.slots[i].t = t
	}
	t.left.Store(int32(n) + 1)
	return t
}

// put returns t to the pool.
func (t *scatterTable) put() {
	clear(t.slots)
	t.slots, t.done, t.f = t.slots[:0], nil, nil
	scatterTblPool.Put(t)
}

// Scatter offers one value to each of n targets under a single tag and
// blocks until every offer has committed with its target's receive. vals
// holds either one value per target or a single value transferred to all —
// the one-sender fan-out of the paper's star broadcast (Figure 3).
//
// Unlike a loop of Send calls — n serial rendezvous, each a full round trip
// through the fabric — Scatter commits the offers concurrently: eligible
// targets are handled through their exchange cells at once, and whatever
// remains is posted in a single slow-lane pass. Offers to distinct targets
// therefore overlap; per-target FIFO order is preserved because each offer
// draws its seq like any other op.
//
// Every offer is driven to an outcome even after another fails, so a
// returned error means exactly the reported targets missed the value: one
// error is returned, after all offers have settled — the first found from the
// last target back. Cancellation withdraws the offers that have not yet
// committed, which report ctx.Err().
func (f *Fabric) Scatter(ctx context.Context, owner Addr, tag Tag, targets []Addr, vals []any) error {
	t := newScatterTable(len(targets))
	for i, a := range targets {
		if a != "" {
			t.slots[i].to = f.intern(a)
		}
	}
	return f.scatter(ctx, f.intern(owner), tag, t, vals)
}

// ScatterID is Scatter from an endpoint to endpoints.
func (f *Fabric) ScatterID(ctx context.Context, owner ID, tag Tag, targets []ID, vals []any) error {
	t, me := f.scatterTo(owner, targets)
	return f.scatter(ctx, me, tag, t, vals)
}

// PostScatterID is ScatterID without the wait: the offers are posted and the
// call returns, and c is told, once every offer has resolved, the error the
// blocking call would return (nil for a commit in every case) — before
// PostScatterID returns, when all resolved on the way in. Like PostDoID's
// alternative, the offers have no context to withdraw them.
func (f *Fabric) PostScatterID(owner ID, tag Tag, targets []ID, vals []any, c Completer) {
	t, me := f.scatterTo(owner, targets)
	t.done = c
	if err := f.postScatter(me, tag, t, vals); err != nil {
		t.put()
		c.Complete(IDOutcome{}, err)
		return
	}
	t.countDown()
}

// scatterTo returns a table for owner's offers to the targets, and owner's
// endpoint.
func (f *Fabric) scatterTo(owner ID, targets []ID) (*scatterTable, *endpoint) {
	t, eps := newScatterTable(len(targets)), f.table()
	for i, id := range targets {
		t.slots[i].to = eps[id]
	}
	return t, eps[owner]
}

// scatter is the blocking Scatter: me's offers to the targets t names are
// posted, and the caller waits for the table's last count. If ctx ends first,
// every offer still out is withdrawn (fire), and the wait is for those that
// won the race. Only the reap releases the slots the offers kept, so none is
// reused while a withdrawal may look at it.
func (f *Fabric) scatter(ctx context.Context, me *endpoint, tag Tag, t *scatterTable, vals []any) error {
	if err := f.postScatter(me, tag, t, vals); err != nil {
		t.put()
		return err
	}
	if t.left.Add(-1) != 0 {
		t.f = f
		f.await(ctx, t.wake, &t.entry)
	}
	if err := t.reap(); err != errWithdrawn {
		return err
	}
	return ctx.Err()
}

// fire is a blocking Scatter's withdrawal, t.entry's function in await: the
// last count comes on its own, after the offers withdrawn here report
// errWithdrawn.
func (t *scatterTable) fire() {
	for i := range t.slots {
		if s := t.slots[i].fs; s != nil && t.f.withdraw(s) {
			s.g.deliver(result{err: errWithdrawn})
		}
	}
	t.wake <- result{err: errLetGo}
}

// Complete is a Scatter's offer resolving: its slot was kept for the table to
// release.
func (s *scatterSlot) Complete(_ IDOutcome, err error) {
	s.err = err
	s.t.countDown()
}

// countDown counts one offer, or the post of a posted Scatter, in. The last
// count wakes the poster of a blocking Scatter, or reaps a posted one's table
// and completes it.
func (t *scatterTable) countDown() {
	if t.left.Add(-1) != 0 {
		return
	}
	if t.done == nil {
		t.wake <- result{}
		return
	}
	c := t.done // before reap puts t back
	c.Complete(IDOutcome{}, t.reap())
}

// reap releases what the offers kept, puts t back, and returns the error the
// Scatter reports: the first found from the last target back.
func (t *scatterTable) reap() error {
	var err error
	for i := len(t.slots) - 1; i >= 0; i-- {
		s := &t.slots[i]
		if s.fs != nil {
			s.fs.release()
		}
		if err == nil {
			err = s.err
		}
	}
	t.put()
	return err
}

// postScatter places me's offers to the targets of t: the one posting path
// of both Scatters. Each offer is posted as a point op is — through the fast
// lane, and what that does not take through one locked pass, each offer by
// enqueueLocked — with its slot of t as its completer and its storage kept
// until the table is reaped. An offer that resolves on the way in is settled
// here. The error is a call that posted nothing.
func (f *Fabric) postScatter(me *endpoint, tag Tag, t *scatterTable, vals []any) error {
	slots := t.slots
	if n := len(slots); n != 0 && len(vals) != n && len(vals) != 1 {
		return fmt.Errorf("rendezvous: Scatter with %d targets but %d values", n, len(vals))
	}
	offer := func(i int) IDBranch {
		br := IDBranch{Dir: DirSend, Peer: noPeer, Tag: tag, Val: vals[0]}
		if len(vals) > 1 {
			br.Val = vals[i]
		}
		if to := slots[i].to; to != nil {
			br.Peer = to.id
		}
		return br
	}
	var out IDOutcome   // a send's outcome tells an offer nothing
	var slowBuf [64]int // wider calls spill to the heap
	slow := slowBuf[:0] // the offers the fast lane did not take
	for i := range slots {
		s, br := &slots[i], offer(i)
		var handled bool
		if s.fs, handled = f.postFast(me.id, &br, s, true, &out); !handled {
			slow = append(slow, i)
		} else if s.fs == nil {
			s.settle(nil)
		}
	}
	if len(slow) == 0 {
		return nil
	}
	var buf [4]due
	me.hot.Add(1)
	f.mu.Lock()
	for _, i := range slow {
		s := &slots[i]
		var seq uint64
		if s.fs == nil {
			s.fs = takeSlot(s, true)
		} else {
			seq = s.fs.ops[0].seq // escalated: it keeps its FIFO place
		}
		if wait, err := f.enqueueLocked(me, []IDBranch{offer(i)}, s.fs, seq, &out); !wait {
			s.settle(err)
		}
	}
	owed := f.owing(buf[:0])
	f.mu.Unlock()
	me.hot.Add(-1)
	owed.Pay()
	return nil
}
