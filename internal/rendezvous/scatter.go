package rendezvous

import (
	"context"
	"fmt"
	"sync"
)

// scatterSlot tracks one target's offer through a Scatter call.
type scatterSlot struct {
	to  *endpoint // the target; nil for one the caller did not name
	g   *group
	o   *op
	fs  *slot // pooled backing storage of g and o
	err error
	// where the offer currently is: committed/failed (done), parked in a
	// fast cell, or posted in the slow lane.
	state int
}

// settle marks the slot resolved with err and returns its pooled backing
// storage, if it took any. Callers must only settle a slot once nothing in
// the fabric references its group or op and its result channel is empty.
func (s *scatterSlot) settle(err error) {
	if s.fs != nil {
		s.fs.release()
		s.fs = nil
	}
	s.g, s.o = nil, nil
	s.state = slotDone
	s.err = err
}

const (
	slotDone = iota
	slotParked
	slotSlow
)

var scatterTblPool = sync.Pool{New: func() any {
	s := make([]scatterSlot, 0, 64)
	return &s
}}

// scatterTable returns a pooled table of n cleared slots. A broadcast-heavy
// role calls Scatter every performance, and a fresh n-slot table per call is
// the dominant allocation; entries hold no live references once every offer
// settles, which is when scatter puts the table back.
func scatterTable(n int) *[]scatterSlot {
	tbl := scatterTblPool.Get().(*[]scatterSlot)
	if cap(*tbl) < n {
		*tbl = make([]scatterSlot, n)
	}
	*tbl = (*tbl)[:n]
	clear(*tbl)
	return tbl
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
	tbl := scatterTable(len(targets))
	for i, a := range targets {
		if a != "" {
			(*tbl)[i].to = f.intern(a)
		}
	}
	return f.scatter(ctx, f.intern(owner), tag, tbl, vals)
}

// ScatterID is Scatter from an endpoint to endpoints.
func (f *Fabric) ScatterID(ctx context.Context, owner ID, tag Tag, targets []ID, vals []any) error {
	tbl, eps := scatterTable(len(targets)), f.table()
	for i, id := range targets {
		(*tbl)[i].to = eps[id]
	}
	return f.scatter(ctx, eps[owner], tag, tbl, vals)
}

// scatter runs me's offers to the targets tbl names, and puts tbl back.
func (f *Fabric) scatter(ctx context.Context, me *endpoint, tag Tag, tbl *[]scatterSlot, vals []any) error {
	slots := *tbl
	defer func() {
		*tbl = slots[:0]
		scatterTblPool.Put(tbl)
	}()
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
			p.g.res <- result{out: IDOutcome{Index: p.index, Peer: me.id, Tag: tag, Val: br.Val}}
			continue // the slot is done as it stands
		}
		// Park with pooled backing storage, exactly like fastPoint.
		s.fs = getSlot()
		s.g, s.o, s.state = &s.fs.g, s.fs.newOp(me, to, &br, 0), slotParked
		f.park(c, s.o)
		to.mu.Unlock()
	}

	// Dekker re-check, as in fastPoint: any parked offer whose endpoints went
	// hot is pulled back and retried through the slow-lane pass.
	for i := range slots {
		s := &slots[i]
		if s.state != slotParked {
			continue
		}
		if !f.fastOK.Load() || me.hot.Load() != 0 || s.to.hot.Load() != 0 {
			if f.unpark(s.o) {
				slow = append(slow, i)
			}
			// else: claimed or drained; the wait phase reaps it.
		}
	}

	// Phase 2: one slow-lane pass posts (or immediately matches) every
	// remaining offer under a single acquisition of the fabric lock, instead
	// of n serial lock round trips.
	if len(slow) > 0 {
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
				s.settle(err)
				continue
			}
			seq := uint64(0)
			if s.fs == nil {
				s.fs = getSlot()
			} else {
				seq = s.o.seq // escalated offer keeps its FIFO place...
				s.fs.n = 0    // ...and hands its storage back
			}
			g, o := &s.fs.g, s.fs.newOp(me, s.to, &br, 0)
			f.drainForLocked(me, s.to, &br)
			if cand := f.findMatchLocked(o); cand != nil {
				f.commitLocked(o, cand)
				<-g.res
				s.settle(nil)
				continue
			}
			if seq != 0 {
				o.seq = seq
			} else {
				o.seq = f.seq.Add(1)
			}
			f.postLocked(o)
			s.g, s.o, s.state = g, o, slotSlow
		}
		f.mu.Unlock()
		me.hot.Add(-1)
	}

	// Wait phase: reap every in-flight offer. Offers resolve independently
	// (commit, peer termination, abort, ...), so waiting for all cannot
	// wedge; on cancellation the unresolved remainder is withdrawn. The reap
	// runs from the last offer back: targets woken together take their offers
	// in the order they were parked, so the one wait that blocks is the one
	// most likely to outlast the others, and their results are then there.
	var firstErr error
	cancelled := false
	for i := len(slots) - 1; i >= 0; i-- {
		s := &slots[i]
		if s.state == slotDone {
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

// withdrawScatter pulls one in-flight offer back from whichever lane holds
// it. If the offer already committed (or failed), it returns that result's
// error, nil for a commit — the value was delivered even though the scatter
// as a whole is unwinding.
func (f *Fabric) withdrawScatter(s *scatterSlot) error {
	if s.state == slotParked && f.unpark(s.o) {
		s.settle(nil)
		return nil
	}
	err := f.withdraw(s.g, nil).err
	s.settle(err)
	return err
}
