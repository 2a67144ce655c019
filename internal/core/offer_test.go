package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
)

// handoffLog is a Handoff that records what it is told, in order, and
// whether the instance's lock was held at each call (TryLock failing: the
// tests run nothing else that could hold it).
type handoffLog struct {
	in  *Instance
	pid string
	log *[]string
	mu  *sync.Mutex
}

func (h handoffLog) note(what string) {
	locked := !h.in.mu.TryLock()
	if !locked {
		h.in.mu.Unlock()
	}
	h.mu.Lock()
	*h.log = append(*h.log, fmt.Sprintf("%s %s locked=%v", h.pid, what, locked))
	h.mu.Unlock()
}

func (h handoffLog) Settled(_ Offered, err error)      { h.note(fmt.Sprintf("settled(%v)", err)) }
func (h handoffLog) Aborted(_ Offered, ae *AbortError) { h.note(fmt.Sprintf("aborted(%s)", ae.Reason)) }
func (h handoffLog) Released()                         { h.note("released") }

// journal collects the hand-offs of several offers on one instance.
type journal struct {
	in  *Instance
	mu  sync.Mutex
	log []string
}

func (j *journal) handoff(pid string) handoffLog {
	return handoffLog{in: j.in, pid: pid, log: &j.log, mu: &j.mu}
}

func (j *journal) take() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.log
	j.log = nil
	return out
}

func sameLog(t *testing.T, step string, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: hand-offs %q, want %q", step, got, want)
	}
}

func trioDef(term Termination) Definition {
	body := func(rc Ctx) error { rc.SetResult(0, rc.PID()); return nil }
	return NewScript("trio").Role("a", body).Role("b", body).Role("c", body).
		Termination(term).MustBuild()
}

// TestOfferPerformRelease walks one delayed-termination performance through
// the non-blocking enrollment, checking who is told what, when, and under
// which lock: the assignment is handed to every cast member once, in role
// order, after the instance's lock is dropped (inside the Offer that
// completed the cast); a role whose body returns is held, and told nothing;
// the role whose return ends the performance is not held, and before its
// Perform returns it has released the others, in the order they finished,
// with the lock dropped.
func TestOfferPerformRelease(t *testing.T) {
	in := NewInstance(trioDef(DelayedTermination))
	defer in.Close()
	j := &journal{in: in}
	ctx := context.Background()
	offer := func(pid, role string) Offered {
		t.Helper()
		o, err := in.Offer(ctx, Enrollment{PID: ids.PID(pid), Role: ids.Role(role)}, j.handoff(pid))
		if err != nil {
			t.Fatalf("offer %s: %v", pid, err)
		}
		return o
	}
	a, b := offer("A", "a"), offer("B", "b")
	sameLog(t, "two of three offered", j.take())
	if in.Load() != 2 || in.PendingOffers() != 2 {
		t.Fatalf("load %d, pending %d; want 2 and 2", in.Load(), in.PendingOffers())
	}
	c := offer("C", "c")
	sameLog(t, "the cast formed", j.take(),
		"A settled(<nil>) locked=false", "B settled(<nil>) locked=false", "C settled(<nil>) locked=false")

	for _, o := range []Offered{b, a} {
		res, held, err := o.Perform(nil)
		if err != nil || !held || res.Performance != 1 || res.Values[0] != o.st.offer.PID {
			t.Fatalf("%s: %+v held=%v %v; want its result, held", o.st.offer.PID, res, held, err)
		}
		if waiting, err := o.Look(); !waiting || err != nil {
			t.Fatalf("%s: Look = %v, %v while held; want waiting", o.st.offer.PID, waiting, err)
		}
	}
	sameLog(t, "two roles held", j.take())

	res, held, err := c.Perform(nil)
	if err != nil || held || res.Values[0] != ids.PID("C") {
		t.Fatalf("C: %+v held=%v %v; want its result, not held", res, held, err)
	}
	sameLog(t, "C ended the performance", j.take(), "B released locked=false", "A released locked=false")
	for _, o := range []Offered{a, b, c} {
		if waiting, err := o.Look(); waiting || err != nil {
			t.Fatalf("%s after the end: Look = %v, %v; want released", o.st.offer.PID, waiting, err)
		}
	}
	if in.Load() != 0 {
		t.Fatalf("load %d after the performance, want 0", in.Load())
	}
}

// TestImmediateTerminationHoldsNobody: under immediate termination Perform
// never holds and nothing is released through the Handoff.
func TestImmediateTerminationHoldsNobody(t *testing.T) {
	in := NewInstance(trioDef(ImmediateTermination))
	defer in.Close()
	j := &journal{in: in}
	var offers []Offered
	for _, r := range []string{"a", "b", "c"} {
		o, err := in.Offer(context.Background(), Enrollment{PID: ids.PID(r), Role: ids.Role(r)}, j.handoff(r))
		if err != nil {
			t.Fatal(err)
		}
		offers = append(offers, o)
	}
	j.take()
	for _, o := range offers {
		if _, held, err := o.Perform(nil); held || err != nil {
			t.Fatalf("%s: held=%v %v; want released at once", o.st.offer.PID, held, err)
		}
	}
	sameLog(t, "immediate termination", j.take())
}

// TestTurnAwayIsHandedOffWithoutTheLock: Drain and Close turn pending offers
// away through Settled, once each, after dropping the lock — where a remote
// holder writes its answer — and Close releases the held roles the same way.
func TestTurnAwayIsHandedOffWithoutTheLock(t *testing.T) {
	in := NewInstance(trioDef(DelayedTermination))
	j := &journal{in: in}
	if _, err := in.Offer(context.Background(), Enrollment{PID: "P", Role: ids.Role("a")}, j.handoff("P")); err != nil {
		t.Fatal(err)
	}
	if err := in.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameLog(t, "drain", j.take(), "P settled(script: instance draining) locked=false")
	if _, err := in.Offer(context.Background(), Enrollment{PID: "Q", Role: ids.Role("a")}, j.handoff("Q")); !errors.Is(err, ErrClosed) {
		t.Fatalf("offer to a drained instance: %v, want ErrClosed", err)
	}
	sameLog(t, "refused at the door", j.take())

	in = NewInstance(trioDef(DelayedTermination))
	j = &journal{in: in}
	var cast []Offered
	for _, m := range [][2]string{{"A", "a"}, {"B", "b"}, {"C", "c"}} {
		o, err := in.Offer(context.Background(), Enrollment{PID: ids.PID(m[0]), Role: ids.Role(m[1])}, j.handoff(m[0]))
		if err != nil {
			t.Fatal(err)
		}
		cast = append(cast, o)
	}
	if _, err := in.Offer(context.Background(), Enrollment{PID: "W", Role: ids.Role("a")}, j.handoff("W")); err != nil {
		t.Fatal(err)
	}
	j.take()
	if _, held, _ := cast[0].Perform(nil); !held {
		t.Fatal("A not held")
	}
	in.Close()
	sameLog(t, "close", j.take(), "A released locked=false", "W settled(script: instance closed) locked=false")
	if res, held, err := cast[1].Perform(nil); held || err != nil || res.Values[0] != ids.PID("B") {
		t.Fatalf("B after the close: %+v held=%v %v; want its result, not held", res, held, err)
	}
}

// TestLookEndsAWaitWhoseContextEnded: a holder whose context has ended looks,
// and the core withdraws its pending offer or cuts its held role loose —
// unless the offer was assigned first, which wins.
func TestLookEndsAWaitWhoseContextEnded(t *testing.T) {
	in := NewInstance(trioDef(DelayedTermination))
	defer in.Close()
	j := &journal{in: in}
	ctxA, cancelA := context.WithCancel(context.Background())
	a, err := in.Offer(ctxA, Enrollment{PID: "A", Role: ids.Role("a")}, j.handoff("A"))
	if err != nil {
		t.Fatal(err)
	}
	cancelA()
	if waiting, err := a.Look(); waiting || !errors.Is(err, context.Canceled) {
		t.Fatalf("pending, context ended: Look = %v, %v; want withdrawn", waiting, err)
	}
	if in.PendingOffers() != 0 || in.Load() != 0 {
		t.Fatalf("withdrawn offer still counted: pending %d, load %d", in.PendingOffers(), in.Load())
	}

	// A cast of three; B's context ends after the assignment and before its
	// body runs (assignment wins), A's while it is held (cut loose).
	ctxA, cancelA = context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	offer := func(ctx context.Context, pid, role string) Offered {
		o, err := in.Offer(ctx, Enrollment{PID: ids.PID(pid), Role: ids.Role(role)}, j.handoff(pid))
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	a, b, c := offer(ctxA, "A", "a"), offer(ctxB, "B", "b"), offer(context.Background(), "C", "c")
	j.take()
	cancelB()
	if waiting, err := b.Look(); waiting || err != nil {
		t.Fatalf("assigned, context ended: Look = %v, %v; want assigned (no error)", waiting, err)
	}
	if _, held, _ := a.Perform(nil); !held {
		t.Fatal("A not held")
	}
	cancelA()
	if waiting, err := a.Look(); waiting || !errors.Is(err, context.Canceled) {
		t.Fatalf("held, context ended: Look = %v, %v; want cut loose", waiting, err)
	}
	if _, held, _ := b.Perform(nil); !held {
		t.Fatal("B not held")
	}
	if _, held, err := c.Perform(nil); held || err != nil {
		t.Fatalf("C: held=%v %v", held, err)
	}
	sameLog(t, "A cut loose, B released", j.take(), "B released locked=false")
}

// countingWakeDelay withholds every hand-off of an assignment for d.
type countingWakeDelay struct {
	d     time.Duration
	calls atomic.Int64
}

func (f *countingWakeDelay) OpDelay() time.Duration     { return 0 }
func (f *countingWakeDelay) CancelAfter() time.Duration { return 0 }
func (f *countingWakeDelay) WakeDelay() time.Duration   { f.calls.Add(1); return f.d }

// TestWakeDelayDefersTheHandoff: the chaos WakeDelay fault withholds the
// assignment's hand-off exactly as it withheld the wake-up: the holder is
// told late, off the lock, and Enroll, built on the same hand-off, still
// completes every performance.
func TestWakeDelayDefersTheHandoff(t *testing.T) {
	const d = 20 * time.Millisecond
	faults := &countingWakeDelay{d: d}
	in := NewInstance(trioDef(DelayedTermination), WithFaultInjection(faults))
	defer in.Close()
	settled := make(chan time.Time, 3)
	var offers []Offered
	start := time.Now()
	for _, r := range []string{"a", "b", "c"} {
		o, err := in.Offer(context.Background(), Enrollment{PID: ids.PID(r), Role: ids.Role(r)}, timedHandoff(settled))
		if err != nil {
			t.Fatal(err)
		}
		offers = append(offers, o)
	}
	for range offers {
		if at := <-settled; at.Sub(start) < d {
			t.Fatalf("hand-off after %v, before the %v it was withheld for", at.Sub(start), d)
		}
	}
	if n := faults.calls.Load(); n != 3 {
		t.Fatalf("WakeDelay consulted %d times for 3 assignments", n)
	}
	for _, o := range offers {
		if _, _, err := o.Perform(nil); err != nil {
			t.Fatal(err)
		}
	}

	faults.d = time.Millisecond
	const rounds = 5
	errs := make(chan error, 3*rounds)
	for _, r := range []string{"a", "b", "c"} {
		go func() {
			for i := 0; i < rounds; i++ {
				res, err := in.Enroll(context.Background(), Enrollment{PID: ids.PID(r), Role: ids.Role(r)})
				if err == nil && res.Values[0] != ids.PID(r) {
					err = fmt.Errorf("%s got %v", r, res.Values)
				}
				errs <- err
			}
		}()
	}
	for i := 0; i < 3*rounds; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := in.Performances(); p != 1+rounds {
		t.Fatalf("%d performances, want %d", p, 1+rounds)
	}
}

type timedHandoff chan time.Time

func (h timedHandoff) Settled(Offered, error)       { h <- time.Now() }
func (h timedHandoff) Aborted(Offered, *AbortError) {}
func (h timedHandoff) Released()                    {}

// reentrant is a hand-off that calls back into the instance from inside its
// calls, which only a hand-off made after the lock is dropped can do: Settled
// looks at the offer it was handed, Aborted places a new offer.
type reentrant struct {
	in      *Instance
	looked  chan error
	offered chan error
}

func (h reentrant) Settled(o Offered, err error) {
	if err == nil {
		_, err = o.Look()
		h.looked <- err
	}
}

func (h reentrant) Aborted(Offered, *AbortError) {
	_, err := h.in.Offer(context.Background(), Enrollment{PID: "Z", Role: ids.Role("a")}, timedHandoff(make(chan time.Time, 1)))
	h.offered <- err
}

func (reentrant) Released() {}

// TestHandoffsAreMadeOutsideTheLock: an assignment's Settled that looks at
// its offer and an abort's Aborted that offers again both return, and each
// is made once per role: neither runs under the instance's lock.
func TestHandoffsAreMadeOutsideTheLock(t *testing.T) {
	in := NewInstance(trioDef(DelayedTermination))
	defer in.Close()
	h := reentrant{in, make(chan error, 3), make(chan error, 3)}
	offers, placed := make([]Offered, 3), make(chan struct{})
	go func() { // the third Offer forms the cast and makes the hand-offs
		for i, r := range []string{"a", "b", "c"} {
			offers[i], _ = in.Offer(context.Background(), Enrollment{PID: ids.PID(r), Role: ids.Role(r)}, h)
		}
		close(placed)
	}()
	take := func(what string, ch chan error) {
		t.Helper()
		for i := 0; i < 3; i++ {
			select {
			case err := <-ch:
				if err != nil {
					t.Fatalf("%s %d: %v", what, i, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s %d never returned: a hand-off made under the lock", what, i)
			}
		}
	}
	take("Settled's Look", h.looked)
	<-placed
	offers[1].Ctx().AbortPerformance("reentrant")
	take("Aborted's Offer", h.offered)
	if n := in.PendingOffers(); n != 3 {
		t.Fatalf("%d offers pending after three Aborted hand-offs offered, want 3", n)
	}
	for _, o := range offers {
		if _, held, err := o.Perform(nil); held || err != nil {
			t.Fatalf("%s after the abort: held=%v %v; want its result", o.st.offer.PID, held, err)
		}
	}
}

// cancelOnSettle is a hand-off that ends another enrollment's context when
// its own offer is assigned, and passes the assignment on.
type cancelOnSettle struct {
	cancel  context.CancelFunc
	settled chan Offered
}

func (h cancelOnSettle) Settled(o Offered, err error) {
	if err == nil {
		h.cancel()
		h.settled <- o
	}
}
func (cancelOnSettle) Aborted(Offered, *AbortError) {}
func (cancelOnSettle) Released()                    {}

// TestHandoffRacesAnEnrollmentWhoseContextEnds: an Enroll whose context ends
// at the moment of its assignment — cancelled from the hand-off made just
// before its own, in the same walk of the owed list — wakes on the context,
// finds itself cast (assignment wins) and performs, held, while the walk
// goes on to its Settled and its co-performers'. The walk reads the kind the
// list recorded, never the record's phase the enroller is moving on; under
// -race, 200 rounds.
func TestHandoffRacesAnEnrollmentWhoseContextEnds(t *testing.T) {
	in := NewInstance(trioDef(DelayedTermination))
	defer in.Close()
	for i := 1; i <= 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		h := cancelOnSettle{cancel, make(chan Offered, 1)}
		if _, err := in.Offer(context.Background(), Enrollment{PID: "A", Role: ids.Role("a")}, h); err != nil {
			t.Fatal(err)
		}
		bDone := make(chan error, 1)
		go func() {
			res, err := in.Enroll(ctx, Enrollment{PID: "B", Role: ids.Role("b")})
			if err == nil || errors.Is(err, context.Canceled) {
				if res.Performance != i {
					err = fmt.Errorf("b played performance %d, want %d", res.Performance, i)
				} else {
					err = nil
				}
			}
			bDone <- err
		}()
		waitPending(t, in, 2)
		cDone := make(chan error, 1)
		go func() {
			_, err := in.Enroll(context.Background(), Enrollment{PID: "C", Role: ids.Role("c")})
			cDone <- err
		}()
		if _, _, err := (<-h.settled).Perform(nil); err != nil {
			t.Fatalf("round %d: a: %v", i, err)
		}
		for _, done := range []chan error{bDone, cDone} {
			if err := <-done; err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
	}
	if in.Load() != 0 {
		t.Fatalf("load %d after the rounds, want 0", in.Load())
	}
}

func waitPending(t *testing.T, in *Instance, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); in.PendingOffers() != n; time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d offers pending, want %d", in.PendingOffers(), n)
		}
	}
}
