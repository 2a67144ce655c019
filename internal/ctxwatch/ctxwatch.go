// Package ctxwatch watches the contexts of many waiters at once, so that each
// waiter can park on one channel of its own instead of selecting on that
// channel and ctx.Done() at every wait.
//
// A Watch groups its entries by their contexts' Done channels: each distinct
// channel that has entries is watched by one context.AfterFunc, whatever the
// number of entries under it or of context values wrapping it, and an entry's
// function runs once if its context ends while the entry is added. Entries
// are intrusive (the waiter embeds one), so an entry that joins a set
// allocates nothing.
//
// A set pays for itself only when its context is shared: by waiters at once,
// or by one waiter over time. The watch tells the two apart by the one Done
// channel it remembers, the last it met with no set. A set made for that
// channel, met again, is kept once its last entry leaves, AfterFunc and all,
// as the watch's one spare — until another kept set empties (the spare is
// then dropped, its AfterFunc stopped), its own context ends, or the watch is
// closed. A set made for a channel met for the first time is dropped with its
// last entry, and its memory serves the next such set: a context per call
// costs Add what context.AfterFunc costs, and no more. Join declines a
// channel met for the first time outright, for a caller with a cheaper way to
// watch a context alone, and Attach every channel that has no set, for a
// caller whose context another entry brings to the watch if anything does.
// The memory a Watch holds is bounded by the entries added to it and two sets.
package ctxwatch

import (
	"context"
	"sync"
	"sync/atomic"
)

// Entry is one waiter's registration with a Watch. It may be added again
// once removed, to the same Watch or another.
type Entry struct {
	// Func is what runs, once, if the entry's context ends while the entry is
	// added. The functions of one context run one after another, on the
	// goroutine its AfterFunc starts, outside the watch's lock: one may call
	// Add and Remove, and one that may block for long (on a socket) hands
	// its work to a goroutine of its own. Set it before the first Add and
	// leave it.
	Func func()

	// set is the set the entry is linked into, nil while it is not added;
	// prev and next link it there. All three are guarded by the watch's lock.
	set        *set
	prev, next *Entry
	// fired is set, under the lock, when the entry is taken out to have its
	// function run, and cleared by Add.
	fired atomic.Bool
}

// Fired reports whether the entry's function has run, or is about to, since
// the entry was last added: whether its context ended while it was added.
// It takes no lock.
func (e *Entry) Fired() bool { return e.fired.Load() }

// set is the entries added under one Done channel, and the AfterFunc that
// watches the channel for them.
type set struct {
	done <-chan struct{}
	head *Entry
	stop func() bool
	// fire is the watch's fire bound to this set, made with the set and kept
	// when its memory is reused; kept says the set was made for a channel
	// met before, and is kept as the spare when it empties.
	fire func()
	kept bool
}

// Watch is a collection of entries grouped by Done channel. The zero Watch is
// ready for use; a Watch must not be copied once used.
type Watch struct {
	mu   sync.Mutex
	sets map[<-chan struct{}]*set
	// met is the Done channel last met with no set. spare is the kept set
	// that emptied last, while it is in sets; closed says the watch keeps
	// none. free is a set dropped with its AfterFunc stopped, for reuse.
	met    <-chan struct{}
	spare  *set
	free   *set
	closed bool
}

// Add adds e under ctx: if ctx ends while e is added, e.Func runs once. A
// context whose Done is nil cannot end and adds nothing. The first entry of a
// Done channel registers the channel's context.AfterFunc; the entries that
// follow, under that context or one that wraps it, join its set, or find it
// as the spare. An entry is added at most once at a time.
func (w *Watch) Add(ctx context.Context, e *Entry) { w.add(ctx, e, addAlways) }

// Join is Add for a caller that can watch ctx itself: it adds e as Add does
// when ctx's Done channel has a set or was met before, and otherwise only
// remembers the channel and reports false, e not added. A context whose Done
// is nil needs no watching, and Join reports true.
func (w *Watch) Join(ctx context.Context, e *Entry) bool { return w.add(ctx, e, addJoin) }

// Attach is Join for a caller whose context some other entry has already
// brought to the watch: it adds e only into a set ctx's Done channel has —
// one with entries, or the spare — and otherwise reports false, e not added
// and nothing remembered. It never makes a set, so a context that only passes
// through costs it a lookup, and what Join declines stays declined.
func (w *Watch) Attach(ctx context.Context, e *Entry) bool { return w.add(ctx, e, addAttach) }

// How add treats a Done channel that has no set: Add makes one, Join makes one
// for the channel it met last, and Attach none.
const (
	addAlways = iota
	addJoin
	addAttach
)

func (w *Watch) add(ctx context.Context, e *Entry, mode int) bool {
	if e.fired.Load() {
		e.fired.Store(false)
	}
	done := ctx.Done()
	if done == nil {
		return true
	}
	w.mu.Lock()
	s := w.sets[done]
	if s == nil {
		met := done == w.met
		if mode != addAttach {
			w.met = done
		}
		if mode == addAttach || !met && mode == addJoin {
			w.mu.Unlock()
			return false
		}
		s = w.makeLocked(ctx, met)
	} else if s == w.spare {
		w.spare = nil
	}
	e.set, e.next = s, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	w.mu.Unlock()
	return true
}

// makeLocked makes the set of ctx's Done channel, in the free set's memory
// if there is one, and registers its AfterFunc — which, for an ended ctx,
// runs fire at once on AfterFunc's goroutine.
func (w *Watch) makeLocked(ctx context.Context, kept bool) *set {
	s := w.free
	if s != nil {
		w.free = nil
	} else {
		s = &set{}
		s.fire = func() { w.fire(s) }
	}
	s.done, s.kept = ctx.Done(), kept
	s.stop = context.AfterFunc(ctx, s.fire)
	if w.sets == nil {
		w.sets = make(map[<-chan struct{}]*set)
	}
	w.sets[s.done] = s
	return s
}

// Remove takes e out of the watch and reports whether it left before its
// function ran: false means Func has run, or is running or about to, and
// will not run again. This is the contract of context.AfterFunc's stop. An
// entry that is not added — never was, or was added under a context that
// cannot end — reports true. A kept set that e leaves empty becomes the
// spare, and the spare it replaces is dropped; any other set e leaves empty
// is dropped.
func (w *Watch) Remove(e *Entry) bool {
	w.mu.Lock()
	s := e.set
	if s == nil {
		w.mu.Unlock()
		return !e.fired.Load()
	}
	w.unlinkLocked(e)
	var drop *set
	if s.head == nil {
		drop = s
		if s.kept && !w.closed {
			drop, w.spare = w.spare, s
		}
	}
	w.dropUnlock(drop)
	return true
}

// Close drops the spare, and from then on the watch drops a set with its
// last entry. A watch whose owner is done with it is closed, so that no
// context it has watched keeps it, or its owner, reachable.
func (w *Watch) Close() {
	w.mu.Lock()
	w.closed = true
	drop := w.spare
	w.spare = nil
	w.dropUnlock(drop)
}

// dropUnlock takes s, an empty set or nil, out of the watch, drops the lock
// and stops s's AfterFunc. A set whose AfterFunc is stopped before it ran is
// nobody's, and becomes the free set; one whose fire has started is fire's,
// which finds it gone.
func (w *Watch) dropUnlock(s *set) {
	if s == nil {
		w.mu.Unlock()
		return
	}
	delete(w.sets, s.done)
	stop := s.stop
	w.mu.Unlock()
	if stop() {
		w.mu.Lock()
		s.done, s.stop = nil, nil // hold on to no context
		w.free = s
		w.mu.Unlock()
	}
}

// unlinkLocked takes e out of its set.
func (w *Watch) unlinkLocked(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		e.set.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.set, e.prev, e.next = nil, nil, nil
}

// fire runs when s's context has ended: it takes the set's entries out one at
// a time, marks each fired and runs its function with the lock dropped, and
// once the set is empty drops it — unless it was dropped first, as a spare
// replaced, by Close or with its last entry, and a later Add made another for
// the same channel. An entry that joins the set meanwhile is fired in turn.
func (w *Watch) fire(s *set) {
	for {
		w.mu.Lock()
		e := s.head
		if e == nil {
			if w.sets[s.done] == s {
				delete(w.sets, s.done)
				if w.spare == s {
					w.spare = nil
				}
			}
			w.mu.Unlock()
			return
		}
		w.unlinkLocked(e)
		e.fired.Store(true)
		f := e.Func // e is its waiter's again once unlinked: read nothing more of it
		w.mu.Unlock()
		f()
	}
}
