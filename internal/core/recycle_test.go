package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
)

// recordOf is the enrollment record behind an Enroll body's Ctx.
func recordOf(rc Ctx) *enrollState { return rc.(*RoleCtx).st }

// soloDef is a one-role script whose body reports its record on recs, when
// recs is not nil.
func soloDef(recs chan<- *enrollState) Definition {
	return NewScript("solo").Role("a", func(rc Ctx) error {
		if recs != nil {
			recs <- recordOf(rc)
		}
		rc.SetResult(0, rc.Arg(0))
		rc.SetResult(1, rc.PID())
		return nil
	}).MustBuild()
}

// enrollSolo enrolls n times in turn on the calling goroutine, in an instance
// of soloDef of its own, and returns the record each enrollment played in.
func enrollSolo(n int) ([]*enrollState, error) {
	recs := make(chan *enrollState, n)
	in := NewInstance(soloDef(recs))
	defer in.Close()
	out := make([]*enrollState, n)
	for i := range out {
		if _, err := in.Enroll(context.Background(), Enrollment{PID: "S", Role: ids.Role("a"), Args: []any{i}}); err != nil {
			return nil, err
		}
		out[i] = <-recs
	}
	return out, nil
}

// reuses counts the enrollments that played in the record of the one before.
func reuses(recs []*enrollState) int {
	n := 0
	for i := 1; i < len(recs); i++ {
		if recs[i] == recs[i-1] {
			n++
		}
	}
	return n
}

// TestRecycleKeepsResultValues: an Enroll's Result.Values lives in its
// performance's result array, not in the record, so it is intact after the
// same goroutine's next Enroll has reused the record and set results of its
// own. The pool promises no particular waker (and drops some under the race
// detector), so the enrollments run until records have been reused.
func TestRecycleKeepsResultValues(t *testing.T) {
	recs := make(chan *enrollState, 1)
	in := NewInstance(soloDef(recs))
	defer in.Close()
	const n = 64
	results, played := make([]Result, n), make([]*enrollState, n)
	for i := range results {
		res, err := in.Enroll(context.Background(), Enrollment{PID: "P", Role: ids.Role("a"), Args: []any{i}})
		if err != nil {
			t.Fatalf("enrollment %d: %v", i, err)
		}
		results[i], played[i] = res, <-recs
	}
	for i, res := range results {
		if len(res.Values) != 2 || res.Values[0] != i || res.Values[1] != ids.PID("P") {
			t.Fatalf("enrollment %d's values read %v after the later enrollments, want [%d P]", i, res.Values, i)
		}
	}
	if reuses(played) == 0 {
		t.Fatalf("none of %d enrollments reused its predecessor's record", n)
	}
}

// TestRecycleSparesARecordItsCastStillNames: an Enroll can return while its
// performance runs on and still names its record — under immediate
// termination an early finisher's, in the cast; under delayed termination a
// held role's cut loose by its context, in the cast and on the held list. The
// enroller offers again from the same goroutine, and a co-performer then
// aborts the performance: the new offer has a record of its own — the
// performance still holds the first offer — is left pending by the abort,
// and plays the next performance.
func TestRecycleSparesARecordItsCastStillNames(t *testing.T) {
	for _, term := range []Termination{ImmediateTermination, DelayedTermination} {
		for round := 1; round <= 10; round++ {
			recycleUnderALiveCast(t, term, round)
		}
	}
}

// recycleUnderALiveCast is one round of the test above.
func recycleUnderALiveCast(t *testing.T, term Termination, round int) {
	a, b := ids.Role("a"), ids.Role("b")
	recs, abort := make(chan *enrollState, 2), make(chan struct{})
	def := NewScript("pair").
		Role("a", func(rc Ctx) error {
			recs <- recordOf(rc)
			rc.SetResult(0, rc.Arg(0))
			return nil
		}).
		Role("b", func(rc Ctx) error {
			if rc.Performance() == 1 {
				<-abort
				rc.(*RoleCtx).AbortPerformance("a co-performer gives up")
			}
			return nil
		}).
		Termination(term).MustBuild()
	in := NewInstance(def)
	defer in.Close()
	bDone := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), Enrollment{PID: "B", Role: b})
		bDone <- err
	}()
	actx, leave := context.WithCancel(context.Background())
	defer leave()
	first, second := make(chan error, 1), make(chan Result, 1)
	go func() {
		_, err := in.Enroll(actx, Enrollment{PID: "A", Role: a, Args: []any{"first"}})
		first <- err
		res, err := in.Enroll(context.Background(), Enrollment{PID: "A", Role: a, Args: []any{"second"}})
		if err != nil {
			t.Errorf("%v, round %d: the second offer: %v", term, round, err)
		}
		second <- res
	}()
	rec := <-recs
	want := error(nil)
	if term == DelayedTermination { // a is held once its body returns: cut it loose
		poll(t, "a held", func() bool {
			in.mu.Lock()
			defer in.mu.Unlock()
			return rec.phase == phaseHeld
		})
		leave()
		want = context.Canceled
	}
	if err := <-first; !errors.Is(err, want) {
		t.Fatalf("%v, round %d: the first offer: %v, want %v", term, round, err, want)
	}
	waitPending(t, in, 1)
	in.mu.Lock()
	p, again := in.active, in.pending[0]
	named := p != nil && p.cast[in.slotOf(a)].st == rec && rec.args[0] == "first"
	if term == DelayedTermination {
		named = named && p.held.head == rec && rec.phase == phaseLeft
	}
	in.mu.Unlock()
	if !named || again == rec {
		t.Fatalf("%v, round %d: the live performance no longer names the first offer's record, or the second offer took it", term, round)
	}

	close(abort)
	if err := <-bDone; err != nil {
		t.Fatalf("%v, round %d: b: %v", term, round, err)
	}
	in.mu.Lock()
	untouched := again.phase == phasePending && again.perf == nil && again.args[0] == "second"
	in.mu.Unlock()
	if !untouched {
		t.Fatalf("%v, round %d: the abort touched the pending second offer", term, round)
	}
	go func() {
		_, err := in.Enroll(context.Background(), Enrollment{PID: "B", Role: b})
		bDone <- err
	}()
	if res := <-second; res.Performance != 2 || len(res.Values) != 1 || res.Values[0] != "second" {
		t.Fatalf("%v, round %d: the second offer played %+v, want performance 2 with its own argument", term, round, res)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("%v, round %d: b again: %v", term, round, err)
	}
	if (<-recs) == rec {
		t.Fatalf("%v, round %d: the second offer played in the first's record", term, round)
	}
}

// blockingCompleter is a posted op's completer that counts what it is told
// and holds the goroutine telling it until release is closed.
type blockingCompleter struct {
	told    atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func (c *blockingCompleter) Complete(Selected, error) {
	c.told.Add(1)
	c.entered <- struct{}{}
	<-c.release
}

// TestRecyclePostedOpOwedItsOutcome: a body posts an op and returns before
// the op's outcome has reached its completer — a co-performer's abort failed
// the op, and pays the failure once it has let the instance go, after the
// enroller's performance is done. The enroller's Enroll returns meanwhile;
// its record is not reused, by the goroutine's later enrollments among
// others, and the completer is told exactly once.
func TestRecyclePostedOpOwedItsOutcome(t *testing.T) {
	a, b := ids.Role("a"), ids.Role("b")
	comp := &blockingCompleter{entered: make(chan struct{}, 2), release: make(chan struct{})}
	var post Post
	posted, recs := make(chan struct{}), make(chan *enrollState, 1)
	def := NewScript("poster").
		Role("a", func(rc Ctx) error {
			recs <- recordOf(rc)
			rc.(*RoleCtx).PostRecvTag(&post, b, "", comp)
			close(posted)
			<-comp.entered // the abort failed the op, and its completer is being told
			return nil
		}).
		Role("b", func(rc Ctx) error {
			<-posted
			rc.(*RoleCtx).AbortPerformance("the poster's partner gives up")
			return nil
		}).MustBuild()
	in := NewInstance(def)
	defer in.Close()
	bDone := make(chan error, 1)
	go func() {
		_, err := in.Enroll(context.Background(), Enrollment{PID: "B", Role: b})
		bDone <- err
	}()
	aDone := make(chan error, 1)
	var later []*enrollState
	go func() {
		_, err := in.Enroll(context.Background(), Enrollment{PID: "A", Role: a})
		if err == nil {
			later, err = enrollSolo(8) // while the completer is still owed
		}
		aDone <- err
	}()
	if err := <-aDone; err != nil {
		t.Fatalf("the poster: %v", err)
	}
	rec := <-recs
	if n := comp.told.Load(); n != 1 || rec.posted.Load() != 1 {
		t.Fatalf("told %d times, %d ops owed, while the completer holds the abort; want 1 and 1", n, rec.posted.Load())
	}
	for i, r := range later {
		if r == rec {
			t.Fatalf("later enrollment %d played in the record whose posted op was owed its outcome", i)
		}
	}
	close(comp.release)
	if err := <-bDone; err != nil {
		t.Fatalf("the aborter: %v", err)
	}
	if n := comp.told.Load(); n != 1 || rec.posted.Load() != 0 {
		t.Fatalf("the completer was told %d times, %d ops still owed; want once and none", n, rec.posted.Load())
	}
	if len(comp.entered) != 0 {
		t.Fatal("the completer was entered twice")
	}
}

// delayFirstWake is a fault injector that withholds the first scheduler
// wakeup of an instance for d and counts every one it is asked about.
type delayFirstWake struct {
	d     time.Duration
	calls atomic.Int32
}

func (f *delayFirstWake) OpDelay() time.Duration     { return 0 }
func (f *delayFirstWake) CancelAfter() time.Duration { return 0 }
func (f *delayFirstWake) WakeDelay() time.Duration {
	if f.calls.Add(1) == 1 {
		return f.d
	}
	return 0
}

// TestRecycleUnderWakeDelay: records are recycled under the fault injector
// too, and its withheld wakeup stays on. The first enrollment's assignment is
// withheld; it gets out when its context ends (assignment wins), plays and
// returns, and the goroutine enrolls again — reusing the record — before the
// timer fires, then sleeps until it has fired, and enrolls again. The timer's
// Settled must read the Handoff it took when the wakeup was withheld, not the
// record the later enrollments refilled (a race the detector reports when the
// timer does not run on the enroller's thread, as it cannot while the
// enroller sleeps), and its token is one more look for whoever holds the
// channel.
func TestRecycleUnderWakeDelay(t *testing.T) {
	const withheld = 30 * time.Millisecond
	faults := &delayFirstWake{d: withheld}
	recs := make(chan *enrollState, 1)
	in := NewInstance(soloDef(recs), WithFaultInjection(faults))
	defer in.Close()
	fired := time.Now().Add(withheld)
	ctx, cancel := context.WithTimeout(context.Background(), withheld/6)
	defer cancel()
	res, err := in.Enroll(ctx, Enrollment{PID: "P", Role: ids.Role("a"), Args: []any{0}})
	if err != nil || res.Performance != 1 || !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("the withheld enrollment: %+v, %v; want performance 1 and no error, after its context ended", res, err)
	}
	played := []*enrollState{<-recs}
	enroll := func(n int) {
		for range n {
			i := len(played)
			res, err := in.Enroll(context.Background(), Enrollment{PID: "P", Role: ids.Role("a"), Args: []any{i}})
			if err != nil || res.Performance != i+1 || res.Values[0] != i {
				t.Fatalf("enrollment %d: %+v, %v", i, res, err)
			}
			played = append(played, <-recs)
		}
	}
	enroll(16)
	if time.Now().After(fired) {
		t.Skip("the enrollments outlasted the withheld wakeup")
	}
	if reuses(played) == 0 {
		t.Fatalf("none of %d enrollments under the fault injector reused a record", len(played))
	}
	time.Sleep(time.Until(fired) + withheld/2)
	enroll(16)
	if n := int(faults.calls.Load()); n != len(played) {
		t.Fatalf("WakeDelay was consulted %d times for %d assignments", n, len(played))
	}
}

// abortBlocker is a Handoff that passes its assignment on, and holds the walk
// of the owed list in Aborted until proceed is closed.
type abortBlocker struct {
	settled     chan Offered
	aborted     chan struct{}
	proceed     chan struct{}
	blockedOnce atomic.Bool
}

func (h *abortBlocker) Settled(o Offered, err error) {
	if err == nil {
		h.settled <- o
	}
}
func (h *abortBlocker) Aborted(Offered, *AbortError) {
	if h.blockedOnce.CompareAndSwap(false, true) {
		close(h.aborted)
		<-h.proceed
	}
}
func (*abortBlocker) Released() {}

// TestRecycleAbortHandoffTakesItsError: an abort owes each role still playing
// its Aborted, with the abort's error, and the walk that makes the calls may
// be held up by a holder before it comes to an Enroll's. That Enroll can
// meanwhile finish, return and offer again in its recycled record, which has
// no performance: the walk must tell it the error taken when the hand-off was
// owed, not read the record.
func TestRecycleAbortHandoffTakesItsError(t *testing.T) {
	a, b := ids.Role("a"), ids.Role("b")
	for round := 1; round <= 10; round++ {
		release := make(chan struct{})
		def := NewScript("pair").Role("a", func(Ctx) error { return nil }).
			Role("b", func(Ctx) error { <-release; return nil }).MustBuild()
		in := NewInstance(def)
		h := &abortBlocker{settled: make(chan Offered, 1), aborted: make(chan struct{}), proceed: make(chan struct{})}
		if _, err := in.Offer(context.Background(), Enrollment{PID: "A", Role: a}, h); err != nil {
			t.Fatal(err)
		}
		bDone := make(chan error, 2)
		go func() {
			_, err := in.Enroll(context.Background(), Enrollment{PID: "B", Role: b})
			bDone <- err
			_, err = in.Enroll(context.Background(), Enrollment{PID: "B", Role: b}) // turned away by Close
			bDone <- err
		}()
		o := <-h.settled
		aborted := make(chan struct{})
		go func() {
			o.Ctx().AbortPerformance("a gives up") // owes a's Aborted, then b's
			close(aborted)
		}()
		<-h.aborted // the walk is held in a's Aborted
		close(release)
		if err := <-bDone; err != nil {
			t.Fatalf("round %d: b: %v", round, err)
		}
		waitPending(t, in, 1) // b offered again, perhaps in its recycled record
		close(h.proceed)
		<-aborted
		if _, _, err := o.Perform(nil); err != nil { // a body that did its work reports success
			t.Fatalf("round %d: a: %v", round, err)
		}
		in.Close()
		if err := <-bDone; !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: b's second offer: %v, want ErrClosed", round, err)
		}
	}
}
