package rendezvous

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// scatterSlot tracks one target's offer through a Scatter call. For a posted
// Scatter it is also the offer's completer.
type scatterSlot struct {
	t  *scatterTable
	to *endpoint // the target; nil for one the caller did not name
	g  *group
	o  *op
	// fs is the backing storage of g and o while the offer is in the fabric
	// (its parked flag says in which lane), nil once it resolved on the way
	// in or was reaped.
	fs  *slot
	err error
}

// settle marks the slot resolved with err and returns its backing storage,
// if it took any. Callers must only settle a slot once nothing in the fabric
// references its group or op and its result channel is empty.
func (s *scatterSlot) settle(err error) {
	if s.fs != nil {
		s.fs.release()
		s.fs = nil
	}
	s.g, s.o = nil, nil
	s.err = err
}

// scatterTable is one Scatter call's offers. A posted Scatter counts them
// down in left — one for each offer that resolves, and one for the post
// itself — and the last to count completes done.
type scatterTable struct {
	slots []scatterSlot
	left  atomic.Int32
	done  Completer
}

var scatterTblPool = sync.Pool{New: func() any {
	return &scatterTable{slots: make([]scatterSlot, 0, 64)}
}}

// newScatterTable returns a pooled table of n cleared slots. A
// broadcast-heavy role calls Scatter every performance, and a fresh n-slot
// table per call is the dominant allocation; entries hold no live references
// once every offer settles, which is when the table goes back.
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
	return t
}

// put returns t to the pool.
func (t *scatterTable) put() {
	clear(t.slots)
	t.slots, t.done = t.slots[:0], nil
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
// error is returned, after all offers have settled — the first the reap
// comes to, and it works from the last target back. Cancellation withdraws
// the offers that have not yet committed and returns ctx.Err().
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
// PostScatterID returns, when all resolved on the way in. While ctx can end,
// its end withdraws the offers nothing committed first, which report
// ctx.Err().
func (f *Fabric) PostScatterID(ctx context.Context, owner ID, tag Tag, targets []ID, vals []any, c Completer) {
	t, me := f.scatterTo(owner, targets)
	t.done = c
	t.left.Store(int32(len(t.slots)) + 1)
	watch := ctx.Done() != nil
	if err := f.postScatter(me, tag, t, vals, watch); err != nil {
		t.put()
		c.Complete(IDOutcome{}, err)
		return
	}
	if watch {
		var loose []*slot
		for i := range t.slots {
			if s := &t.slots[i]; s.fs != nil {
				loose = append(loose, s.fs)
			}
		}
		context.AfterFunc(ctx, func() {
			for _, s := range loose {
				f.withdrawPosted(s, ctx.Err())
			}
		})
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

// Complete is a posted Scatter's offer resolving: its slot was kept for the
// table to release.
func (s *scatterSlot) Complete(_ IDOutcome, err error) {
	s.err = err
	s.t.countDown()
}

// countDown counts one offer of a posted Scatter, or the post, in; the last
// one releases what the offers kept and completes the Scatter with the error
// the blocking reap would return: the first found from the last target back.
func (t *scatterTable) countDown() {
	if t.left.Add(-1) != 0 {
		return
	}
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
	c := t.done
	t.put()
	c.Complete(IDOutcome{}, err)
}

// scatter runs me's offers to the targets t names — posted, then reaped —
// and puts t back.
func (f *Fabric) scatter(ctx context.Context, me *endpoint, tag Tag, t *scatterTable, vals []any) error {
	defer t.put()
	if err := f.postScatter(me, tag, t, vals, false); err != nil {
		return err
	}
	// Reap every in-flight offer. Offers resolve independently (commit, peer
	// termination, abort, ...), so waiting for all cannot wedge; on
	// cancellation the unresolved remainder is withdrawn. The reap runs from
	// the last offer back: targets woken together take their offers in the
	// order they were parked, so the one wait that blocks is the one most
	// likely to outlast the others, and their results are then there.
	var firstErr error
	cancelled := false
	slots := t.slots
	for i := len(slots) - 1; i >= 0; i-- {
		s := &slots[i]
		if s.fs == nil {
			if s.err != nil && firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		if cancelled {
			if err := f.withdrawScatter(s); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		// Take a result that is already there without the two-way wait.
		var r result
		select {
		case r = <-s.g.res:
		default:
			select {
			case r = <-s.g.res:
			case <-ctx.Done():
				cancelled = true
				if firstErr == nil {
					firstErr = ctx.Err()
				}
				if err := f.withdrawScatter(s); err != nil && firstErr == nil {
					firstErr = err
				}
				continue
			}
		}
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		s.settle(r.err)
	}
	return firstErr
}

// postScatter places me's offers to the targets of t: the one posting path
// of both Scatters. An offer that resolves on the way in is settled here —
// and, for a posted Scatter (t.done set), counted down; the others wait in
// their slots, whose groups go to the reap's channels, or, posted, to the
// slots themselves as completers, with the storage kept (loose, when watch
// says a context will withdraw them) until the table is done. The error is
// a call that posted nothing.
func (f *Fabric) postScatter(me *endpoint, tag Tag, t *scatterTable, vals []any, watch bool) error {
	slots := t.slots
	if n := len(slots); n != 0 && len(vals) != n && len(vals) != 1 {
		return fmt.Errorf("rendezvous: Scatter with %d targets but %d values", n, len(vals))
	}
	posted := t.done != nil
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
	take := func(s *scatterSlot) *slot {
		if !posted {
			return getSlot()
		}
		return takeSlot(s, true, watch)
	}
	// settle settles an offer resolved on the way in.
	settle := func(s *scatterSlot, err error) {
		s.settle(err)
		if posted {
			t.left.Add(-1) // never the last: the post holds one
		}
	}
	var slow []int // indexes that must go through the slow-lane pass

	// Phase 1: fast-lane sweep. Offers whose target has a parked receive
	// commit immediately; the rest park in their cells, all without the
	// fabric lock.
	fastOK := f.fastOK.Load()
	for i := range slots {
		s := &slots[i]
		to := s.to
		if !fastOK || to == nil || to == me || me.hot.Load() != 0 || to.hot.Load() != 0 {
			slow = append(slow, i)
			continue
		}
		br := offer(i)
		to.mu.Lock()
		c := f.cellLocked(me, to, tag)
		if len(c.ops) > 0 && c.ops[0].dir == DirRecv {
			p := to.commitHead(c, me)
			to.mu.Unlock()
			p.g.deliver(result{out: IDOutcome{Index: p.index, Peer: me.id, Tag: tag, Val: br.Val}})
			settle(s, nil)
			continue
		}
		// Park with backing storage of its own, exactly like postFast.
		s.fs = take(s)
		s.g, s.o = &s.fs.g, s.fs.newOp(me, to, &br, 0)
		f.park(c, s.o)
		to.mu.Unlock()
	}

	// Dekker re-check, as in postFast: any parked offer whose endpoints went
	// hot is pulled back and retried through the slow-lane pass.
	for i := range slots {
		s := &slots[i]
		if s.fs == nil { // resolved, or bound for the slow lane already
			continue
		}
		if !f.fastOK.Load() || me.hot.Load() != 0 || s.to.hot.Load() != 0 {
			if f.unpark(s.o) {
				s.fs.parked = false
				slow = append(slow, i)
			}
			// else: claimed or drained; its outcome is on its way.
		}
	}

	// Phase 2: one slow-lane pass posts (or immediately matches) every
	// remaining offer under a single acquisition of the fabric lock, instead
	// of n serial lock round trips.
	if len(slow) == 0 {
		return nil
	}
	var buf [4]due
	me.hot.Add(1)
	f.mu.Lock()
	var failAll error
	switch {
	case f.closed:
		failAll = ErrClosed
	case f.aborted != nil:
		failAll = f.aborted
	case me.terminated:
		failAll = ErrSelfTerminated
	}
	for _, i := range slow {
		s := &slots[i]
		br := offer(i)
		err := failAll
		if err == nil {
			err = validateBranch(&br)
		}
		if err == nil && s.to.terminated {
			err = ErrPeerTerminated
		}
		if err != nil {
			settle(s, err)
			continue
		}
		seq := uint64(0)
		if s.fs == nil {
			s.fs = take(s)
		} else {
			seq = s.o.seq // escalated offer keeps its FIFO place...
			s.fs.n = 0    // ...and hands its storage back
		}
		g, o := &s.fs.g, s.fs.newOp(me, s.to, &br, 0)
		f.drainForLocked(me, s.to, &br)
		if cand := f.findMatchLocked(o); cand != nil {
			f.commitLocked(o, cand)
			settle(s, nil)
			continue
		}
		if seq != 0 {
			o.seq = seq
		} else {
			o.seq = f.seq.Add(1)
		}
		f.postLocked(o)
		s.g, s.o = g, o
	}
	owed := f.owing(buf[:0])
	f.mu.Unlock()
	me.hot.Add(-1)
	owed.Pay()
	return nil
}

// withdrawScatter pulls one in-flight offer of the reap back from whichever
// lane holds it (withdraw). If the offer already committed (or failed), it
// returns that result's error, nil for a commit — the value was delivered
// even though the scatter as a whole is unwinding.
func (f *Fabric) withdrawScatter(s *scatterSlot) error {
	var err error
	if !f.withdraw(s.fs) {
		err = (<-s.g.res).err
	}
	s.settle(err)
	return err
}
