package rendezvous

import (
	"context"
	"fmt"
	"sync"
)

// scatterSlot tracks one target's offer through a Scatter call.
type scatterSlot struct {
	g   *group
	o   *op
	fs  *slot // pooled backing storage of g and o
	sh  *shard
	k   cellKey
	hTo uint32 // fnv1a of the target, taken when the offer parked
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
	if len(targets) == 0 {
		return nil
	}
	if len(vals) != len(targets) && len(vals) != 1 {
		return fmt.Errorf("rendezvous: Scatter with %d targets but %d values", len(targets), len(vals))
	}
	valAt := func(i int) any {
		if len(vals) == 1 {
			return vals[0]
		}
		return vals[i]
	}

	// The slot table is pooled: a broadcast-heavy role calls Scatter every
	// performance, and a fresh n-slot table per call is the dominant
	// allocation. Entries hold no live references once every offer settles.
	tbl := scatterTblPool.Get().(*[]scatterSlot)
	if cap(*tbl) < len(targets) {
		*tbl = make([]scatterSlot, len(targets))
	}
	slots := (*tbl)[:len(targets)]
	clear(slots)
	defer func() {
		*tbl = slots[:0]
		scatterTblPool.Put(tbl)
	}()
	var slow []int // indexes that must go through the slow-lane pass

	// Phase 1: fast-lane sweep. Offers whose target has a parked receive
	// commit immediately; the rest park in their cells, all without the
	// fabric lock. The owner's hash feeds every per-target computation, so
	// it is taken once; the owner's parked-filter slots are adjusted with
	// one batched add below instead of 2n contended ones — safe because the
	// Dekker re-check after the batch catches any Terminate(owner) that ran
	// while the owner's counts were not yet visible.
	fastOK := f.fastOK.Load()
	hOwner := fnv1a(string(owner))
	var ownerParks int64
	for i, to := range targets {
		if !fastOK || to == "" || to == owner || f.hot[hOwner&(numHot-1)].Load() != 0 || f.hotAddr(to) {
			slow = append(slow, i)
			continue
		}
		hTo := fnv1a(string(to))
		k := cellKey{from: owner, to: to, tag: tag}
		shIdx := shardIndex(hOwner, hTo)
		sh := &f.shards[shIdx]
		sh.mu.Lock()
		if list := sh.cells[k]; len(list) > 0 && list[0].branch.Dir == DirRecv {
			p := list[0]
			copy(list, list[1:])
			list[len(list)-1] = nil
			sh.cells[k] = list[:len(list)-1]
			f.parked.Add(-1)
			f.parkedAt[hTo&(numHot-1)].Add(-1)
			f.parkedAt[mixIndex(hTo)].Add(-1)
			ownerParks--
			p.g.claim()
			sh.fastCommits++
			sh.mu.Unlock()
			p.g.res <- result{out: Outcome{Index: p.index, Peer: owner, Tag: tag, Val: valAt(i)}}
			slots[i] = scatterSlot{state: slotDone}
			continue
		}
		// Park with pooled backing storage, exactly like fastPoint.
		fs := getSlot()
		o := fs.newOp(owner, Branch{Dir: DirSend, Peer: to, Tag: tag, Val: valAt(i)}, 0)
		o.seq = f.seq.Add(1)
		sh.cells[k] = append(sh.cells[k], o)
		f.parked.Add(1)
		f.parkedAt[hTo&(numHot-1)].Add(1)
		f.parkedAt[mixIndex(hTo)].Add(1)
		ownerParks++
		f.touch(shIdx)
		sh.mu.Unlock()
		slots[i] = scatterSlot{g: &fs.g, o: o, fs: fs, sh: sh, k: k, hTo: hTo, state: slotParked}
	}
	if ownerParks != 0 {
		f.parkedAt[hOwner&(numHot-1)].Add(ownerParks)
		f.parkedAt[mixIndex(hOwner)].Add(ownerParks)
	}

	// Dekker re-check, as in fastPoint: any parked offer whose endpoints went
	// hot is pulled back and retried through the slow-lane pass. The loads
	// are per offer; the hashes are phase 1's.
	for i := range slots {
		s := &slots[i]
		if s.state != slotParked {
			continue
		}
		if !f.fastOK.Load() || f.hot[hOwner&(numHot-1)].Load() != 0 || f.hot[s.hTo&(numHot-1)].Load() != 0 {
			if f.unpark(s.sh, s.k, s.o) {
				slow = append(slow, i)
			}
			// else: claimed or drained; the wait phase reaps it.
		}
	}

	// Phase 2: one slow-lane pass posts (or immediately matches) every
	// remaining offer under a single acquisition of the fabric lock, instead
	// of n serial lock round trips.
	if len(slow) > 0 {
		guard := hotIndex(owner)
		f.hot[guard].Add(1)
		f.mu.Lock()
		switch {
		case f.closed:
			for _, i := range slow {
				slots[i].settle(ErrClosed)
			}
		case f.aborted != nil:
			for _, i := range slow {
				slots[i].settle(f.aborted)
			}
		case f.terminated[owner]:
			for _, i := range slow {
				slots[i].settle(ErrSelfTerminated)
			}
		default:
			for _, i := range slow {
				s := &slots[i]
				br := Branch{Dir: DirSend, Peer: targets[i], Tag: tag, Val: valAt(i)}
				if err := validateBranch(br); err != nil {
					s.settle(err)
					continue
				}
				if f.terminated[br.Peer] {
					s.settle(ErrPeerTerminated)
					continue
				}
				seq := uint64(0)
				if s.fs == nil {
					s.fs = getSlot()
				} else {
					seq = s.o.seq // escalated offer keeps its FIFO place...
					s.fs.n = 0    // ...and hands its storage back
				}
				g, o := &s.fs.g, s.fs.newOp(owner, br, 0)
				f.drainForLocked(owner, []Branch{br})
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
		}
		f.mu.Unlock()
		f.hot[guard].Add(-1)
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
	if s.state == slotParked && f.unpark(s.sh, s.k, s.o) {
		s.settle(nil)
		return nil
	}
	f.mu.Lock()
	if s.g.claim() {
		f.removeGroupLocked(s.g)
		f.mu.Unlock()
		s.settle(nil)
		return nil
	}
	f.mu.Unlock()
	err := (<-s.g.res).err
	s.settle(err)
	return err
}
