package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
)

// withholdFirstWake is a fault injector that withholds the first scheduler
// wakeup of an instance for d (chaos WakeDelay) and delivers the rest inline.
type withholdFirstWake struct {
	d    time.Duration
	used atomic.Bool
}

func (f *withholdFirstWake) OpDelay() time.Duration     { return 0 }
func (f *withholdFirstWake) CancelAfter() time.Duration { return 0 }
func (f *withholdFirstWake) WakeDelay() time.Duration {
	if f.used.CompareAndSwap(false, true) {
		return f.d
	}
	return 0
}

// pendingRecord returns the record of pid's pending offer.
func pendingRecord(in *Instance, pid ids.PID) *enrollState {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, st := range in.pending {
		if st.offer.PID == pid {
			return st
		}
	}
	return nil
}

// TestStaleWakeTokenIsOnlyALook: a wake channel goes back to the pool when
// its enrollment returns, and a signaller that was delayed past that return
// — the timer a withheld wakeup is redelivered by — then signals whoever
// holds the channel next. The successor must take the token for what every
// token is, a reason to look at its own state: it neither starts (nothing was
// assigned to it) nor fails, and is assigned normally afterwards.
//
// A's wakeup for performance 1 is withheld; A gets out when its context ends
// (the instance's watch leaves the token; the assignment still wins), plays
// and returns.
// The goroutine that ran A then offers the same role again as A2, which draws
// A's channel from the pool. The stale signal is delivered twice: once by the
// test itself, as soon as A2 is seen to hold the channel, by the very call the
// timer will make (A's record's signal), and once by the timer.
//
// The scenario also stands for a channel put back with a token in it: were
// putWake not to drain, the next holder would start as A2 does after the
// stale signal, one look ahead and nothing else — checked by mutation, the
// test passes with the drain removed, which is why the drain is described as
// a saving and not as a safeguard.
func TestStaleWakeTokenIsOnlyALook(t *testing.T) {
	nop := func(Ctx) error { return nil }
	def := NewScript("pair").Role("a", nop).Role("b", nop).
		Initiation(DelayedInitiation).Termination(ImmediateTermination).MustBuild()
	enrollB := func(in *Instance, pid ids.PID) error {
		_, err := in.Enroll(context.Background(), Enrollment{PID: pid, Role: ids.Role("b")})
		return err
	}
	const withheld = 30 * time.Millisecond

	// The pool promises no particular channel (and drops some on purpose under
	// the race detector), so the scenario is set up until A2 does hold A's.
	for attempt := 1; attempt <= 50; attempt++ {
		in := NewInstance(def, WithFaultInjection(&withholdFirstWake{d: withheld}))
		actx, cancelA := context.WithCancel(context.Background())
		type outcome struct {
			res Result
			err error
		}
		first, second := make(chan outcome, 1), make(chan outcome, 1)
		go func() {
			res, err := in.Enroll(actx, Enrollment{PID: "A", Role: ids.Role("a")})
			first <- outcome{res, err}
			res, err = in.Enroll(context.Background(), Enrollment{PID: "A2", Role: ids.Role("a")})
			second <- outcome{res, err}
		}()
		waitFor(t, func() bool { return in.PendingOffers() == 1 })
		stA := pendingRecord(in, "A")

		// Performance 1: a is assigned first (role order) and its wakeup withheld.
		if err := enrollB(in, "B"); err != nil {
			t.Fatalf("B: %v", err)
		}
		fired := time.Now().Add(withheld)
		// Two collections empty the pool — B's channel is in it by now, and
		// whatever earlier attempts left — so that A's, put back next, is the
		// likeliest one to come out.
		runtime.GC()
		runtime.GC()
		cancelA()
		if o := <-first; o.err != nil || o.res.Performance != 1 {
			t.Fatalf("A, woken by its context only: %+v, %v; want performance 1 and no error", o.res, o.err)
		}

		waitFor(t, func() bool { return in.PendingOffers() == 1 })
		stA2 := pendingRecord(in, "A2")
		if stA2.h != stA.h {
			in.Close()
			<-second
			continue
		}

		stA.h.Settled(Offered{}, nil)                                // the delayed signaller, released after its enrollment returned
		waitFor(t, func() bool { return len(stA2.h.(wakeCh)) == 0 }) // A2 took its look
		time.Sleep(time.Until(fired) + 20*time.Millisecond)          // and the timer's, when it fires
		waitFor(t, func() bool { return len(stA2.h.(wakeCh)) == 0 })
		select {
		case o := <-second:
			t.Fatalf("a stale token ended A2's wait: %+v, %v", o.res, o.err)
		default:
		}
		if n, p := in.PendingOffers(), in.Performances(); n != 1 || p != 1 {
			t.Fatalf("after the stale tokens: %d pending, %d performances; want A2 still pending and 1", n, p)
		}

		if err := enrollB(in, "B2"); err != nil {
			t.Fatalf("B2: %v", err)
		}
		if o := <-second; o.err != nil || o.res.Performance != 2 {
			t.Fatalf("A2: %+v, %v; want performance 2 and no error", o.res, o.err)
		}
		in.Close()
		return
	}
	t.Skip("the pool never handed A's channel to A2")
}
