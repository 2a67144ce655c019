package ctxwatch

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// countingCtx ends with inner and counts the context.AfterFunc registrations
// made on it: AfterFunc defers to a context that has an AfterFunc method of
// its own, unless the context shows it a cancelCtx of the package's, which
// this one hides by taking its values from Background.
type countingCtx struct {
	context.Context
	inner      context.Context
	afterFuncs atomic.Int32
}

func (c *countingCtx) Done() <-chan struct{} { return c.inner.Done() }
func (c *countingCtx) Err() error            { return c.inner.Err() }

func (c *countingCtx) AfterFunc(f func()) func() bool {
	c.afterFuncs.Add(1)
	return context.AfterFunc(c.inner, f)
}

// setCount is the number of Done channels w watches.
func (w *Watch) setCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sets)
}

// signal is an entry whose function closes ran.
func signal() (*Entry, chan struct{}) {
	ran := make(chan struct{})
	return &Entry{Func: func() { close(ran) }}, ran
}

func ran(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func waitRan(t *testing.T, what string, ch chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: the function never ran", what)
	}
}

func eventuallyNoSets(t *testing.T, w *Watch) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); w.setCount() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d sets left", w.setCount())
		}
	}
}

func TestWatchSharesOneAfterFuncPerContext(t *testing.T) {
	inner, cancel := context.WithCancel(context.Background())
	ctx := &countingCtx{Context: context.Background(), inner: inner}
	var w Watch
	const n = 24
	var chans []chan struct{}
	for range n {
		e, ch := signal()
		w.Add(ctx, e)
		chans = append(chans, ch)
	}
	wrapped, wch := signal()
	w.Add(context.WithValue(ctx, struct{}{}, "wrapped"), wrapped)
	if got := ctx.afterFuncs.Load(); got != 1 {
		t.Fatalf("%d entries on one context made %d AfterFuncs, want 1", n+1, got)
	}
	if got := w.setCount(); got != 1 {
		t.Fatalf("one context and a wrapper of it make %d sets, want 1", got)
	}
	for _, ch := range chans {
		if ran(ch) {
			t.Fatal("a function ran before its context ended")
		}
	}
	cancel()
	for _, ch := range append(chans, wch) {
		waitRan(t, "an entry of the cancelled context", ch)
	}
	eventuallyNoSets(t, &w)
	if !wrapped.Fired() || w.Remove(wrapped) {
		t.Fatal("a fired entry reports it left before its function ran")
	}
}

func TestWatchFiresAnEndedContextAtOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var w Watch
	e, ch := signal()
	w.Add(ctx, e)
	waitRan(t, "an entry added under an ended context", ch)
	if w.Remove(e) {
		t.Fatal("Remove after the function ran reports true")
	}
	eventuallyNoSets(t, &w)
}

func TestWatchNilDoneRegistersNothing(t *testing.T) {
	var w Watch
	e, ch := signal()
	w.Add(context.Background(), e)
	if got := w.setCount(); got != 0 {
		t.Fatalf("a context that cannot end made %d sets", got)
	}
	if !w.Remove(e) || e.Fired() || ran(ch) {
		t.Fatal("an entry under a context that cannot end did not leave cleanly")
	}
}

// TestWatchRemoveRacesTheFiring cancels a context while its entry is removed:
// Remove reports false exactly when the function ran. A second entry, added
// first, marks the end of the firing: fire takes entries newest first and
// runs their functions one after another, so once the second's function has
// run the first's has run too, or it was removed.
func TestWatchRemoveRacesTheFiring(t *testing.T) {
	var w Watch
	for round := range 1000 {
		ctx, cancel := context.WithCancel(context.Background())
		last, lastRan := signal()
		w.Add(ctx, last)
		e, eRan := signal()
		w.Add(ctx, e)
		go cancel()
		left := w.Remove(e)
		waitRan(t, "the entry left in the set", lastRan)
		if left == ran(eRan) {
			t.Fatalf("round %d: Remove = %v, function ran = %v", round, left, ran(eRan))
		}
		if e.Fired() == left {
			t.Fatalf("round %d: Remove = %v, Fired = %v", round, left, e.Fired())
		}
	}
	eventuallyNoSets(t, &w)
}

// TestWatchRemoveRacesTheFiringOfALoneEntry is the same race with the entry
// alone in its set, so that Remove drops the set while its AfterFunc may be
// firing, and the next round may make its set in the dropped one's memory.
// An entry that left first never runs, on this round or a later one.
func TestWatchRemoveRacesTheFiringOfALoneEntry(t *testing.T) {
	var w Watch
	var left []chan struct{}
	for round := range 1000 {
		ctx, cancel := context.WithCancel(context.Background())
		e, eRan := signal()
		w.Add(ctx, e)
		go cancel()
		if w.Remove(e) {
			left = append(left, eRan)
		} else {
			waitRan(t, "an entry Remove came too late for", eRan)
		}
		if e.Fired() != ran(eRan) {
			t.Fatalf("round %d: Fired = %v, function ran = %v", round, e.Fired(), ran(eRan))
		}
	}
	eventuallyNoSets(t, &w)
	for _, ch := range left {
		if ran(ch) {
			t.Fatal("an entry that left before its function ran, ran")
		}
	}
}

// TestWatchFunctionsMayUseTheirWatch: a function runs with the lock dropped,
// so it can add and remove entries of its own watch, under its own ended
// context too.
func TestWatchFunctionsMayUseTheirWatch(t *testing.T) {
	var w Watch
	ctx, cancel := context.WithCancel(context.Background())
	other, otherCancel := context.WithCancel(context.Background())
	defer otherCancel()
	kept, keptRan := signal()
	w.Add(other, kept)
	again, againRan := signal()
	done := make(chan struct{})
	e := &Entry{Func: func() {
		w.Add(ctx, again) // joins the set being fired
		w.Remove(kept)
		close(done)
	}}
	w.Add(ctx, e)
	cancel()
	waitRan(t, "the function that uses its watch", done)
	waitRan(t, "the entry it added under the ended context", againRan)
	if ran(keptRan) {
		t.Fatal("the entry it removed ran")
	}
	eventuallyNoSets(t, &w)
}

// TestWatchDropsTheSetsOfDistinctContexts adds and removes entries under
// 10 000 distinct contexts, one after another: each set is made for a channel
// met for the first time, so it goes with its last entry, and none is left.
func TestWatchDropsTheSetsOfDistinctContexts(t *testing.T) {
	var w Watch
	e, _ := signal()
	for i := range 10000 {
		ctx, cancel := context.WithCancel(context.Background())
		w.Add(ctx, e)
		if !w.Remove(e) {
			t.Fatalf("context %d: removed before its context ended, yet Remove = false", i)
		}
		cancel()
		if got := w.setCount(); got != 0 {
			t.Fatalf("context %d: %d sets after its entry left, want 0", i, got)
		}
	}
}

// TestWatchKeepsTheSpareOfAContextMetBefore: a waiter alone on its context
// empties the set at every Remove. The first set, made for a channel the
// watch had not met, is dropped; the second, made for one it had, is kept as
// the spare, and every later Add finds it — two AfterFuncs for a hundred
// waits — until Close drops it. After Close a set goes with its last entry.
func TestWatchKeepsTheSpareOfAContextMetBefore(t *testing.T) {
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &countingCtx{Context: context.Background(), inner: inner}
	var w Watch
	e, _ := signal()
	for range 100 {
		w.Add(ctx, e)
		w.Remove(e)
	}
	if got := ctx.afterFuncs.Load(); got != 2 {
		t.Fatalf("100 waits alone on one context made %d AfterFuncs, want 2", got)
	}
	if got := w.setCount(); got != 1 {
		t.Fatalf("%d sets between waits, want the spare alone", got)
	}
	w.Close()
	if got := w.setCount(); got != 0 {
		t.Fatalf("a closed watch keeps %d sets", got)
	}
	w.Add(ctx, e)
	w.Remove(e)
	if got := w.setCount(); got != 0 {
		t.Fatalf("a closed watch kept %d sets after its last entry left", got)
	}
}

// TestWatchSpareEndsWithItsContext: the spare's AfterFunc still watches its
// context, and the set goes when the context ends.
func TestWatchSpareEndsWithItsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var w Watch
	e, _ := signal()
	for range 2 {
		w.Add(ctx, e)
		w.Remove(e)
	}
	if got := w.setCount(); got != 1 {
		t.Fatalf("%d sets, want the spare", got)
	}
	cancel()
	eventuallyNoSets(t, &w)
}

// TestWatchJoinDeclinesAContextMetOnce: Join adds nothing for a channel it
// has not met before, remembers it, and adds under it the next time; an
// entry under a channel that has a set always joins it. A context that
// cannot end needs no watching, and Join says so.
func TestWatchJoinDeclinesAContextMetOnce(t *testing.T) {
	var w Watch
	a, cancelA := context.WithCancel(context.Background())
	b, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	first, firstRan := signal()
	second, secondRan := signal()
	other, otherRan := signal()
	if w.Join(a, first) {
		t.Fatal("Join added an entry under a context it had not met")
	}
	if !w.Join(a, second) {
		t.Fatal("Join declined a context it had met")
	}
	if !w.Join(a, first) {
		t.Fatal("Join declined a context that has a set")
	}
	if w.Join(b, other) {
		t.Fatal("Join added an entry under a second context it had not met")
	}
	if nop, _ := signal(); !w.Join(context.Background(), nop) || w.setCount() != 1 {
		t.Fatal("a context that cannot end was not taken as needing no watching")
	}
	cancelA()
	waitRan(t, "the first entry under a", firstRan)
	waitRan(t, "the second entry under a", secondRan)
	eventuallyNoSets(t, &w)
	if ran(otherRan) || !w.Remove(other) {
		t.Fatal("a declined entry ran, or reports it did")
	}
}

// TestWatchAllocs: an entry that finds its context's set allocates nothing,
// nor does a declined Join; a context met once costs Add no more than
// context.AfterFunc and its stop cost on their own.
func TestWatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 100
	ctxs := make([]context.Context, 3*(runs+1)+1) // AllocsPerRun calls once more than runs
	for i := range ctxs {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx.Done() // a cancelCtx makes its channel on the first call: the context's own object
		ctxs[i] = ctx
	}
	var w Watch
	e, _ := signal()
	shared := ctxs[0]
	if got := testing.AllocsPerRun(runs, func() { w.Add(shared, e); w.Remove(e) }); got != 0 {
		t.Errorf("Add and Remove under a context met before allocate %v objects, want 0", got)
	}
	next := 1
	fresh := func() context.Context { next++; return ctxs[next-1] }
	if got := testing.AllocsPerRun(runs, func() { w.Join(fresh(), e) }); got != 0 {
		t.Errorf("a declined Join allocates %v objects, want 0", got)
	}
	nop := func() {}
	alone := testing.AllocsPerRun(runs, func() { context.AfterFunc(fresh(), nop)() })
	got := testing.AllocsPerRun(runs, func() { w.Add(fresh(), e); w.Remove(e) })
	t.Logf("a context met once: %v objects; context.AfterFunc and stop alone: %v", got, alone)
	if got > alone {
		t.Errorf("Add and Remove under a context met once allocate %v objects, want no more than AfterFunc's %v", got, alone)
	}
}

// TestWatchAttachJoinsOnlyASetThatExists: Attach adds an entry into the set
// its context's Done channel has, live or the spare, and otherwise declines
// without making one or remembering the channel — so a context that only
// passes through Attach is still met for the first time by Join.
func TestWatchAttachJoinsOnlyASetThatExists(t *testing.T) {
	var w Watch
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	op, opRan := signal()
	enroller, _ := signal()
	if w.Attach(ctx, op) || w.setCount() != 0 {
		t.Fatal("Attach added an entry, or made a set, under a context with none")
	}
	if w.Join(ctx, enroller) {
		t.Fatal("Attach remembered the context: Join took it as met")
	}
	if w.Attach(ctx, op) || w.setCount() != 0 {
		t.Fatal("Attach made a set for the context Join met last")
	}
	if !w.Join(ctx, enroller) || !w.Attach(ctx, op) || w.setCount() != 1 {
		t.Fatal("Attach declined a context that has a set")
	}
	if !w.Remove(op) || !w.Remove(enroller) || w.setCount() != 1 {
		t.Fatal("the set Join made for a context met before was not kept as the spare")
	}
	if !w.Attach(ctx, op) {
		t.Fatal("Attach declined a context whose set is the spare")
	}
	cancel()
	waitRan(t, "an entry attached to the spare", opRan)
	if w.Remove(op) {
		t.Fatal("Remove reports that an entry whose function ran left before it")
	}
	eventuallyNoSets(t, &w)
	if nop, _ := signal(); !w.Attach(context.Background(), nop) || w.setCount() != 0 {
		t.Fatal("a context that cannot end was not taken as needing no watching")
	}
}
