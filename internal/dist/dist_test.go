package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// runRounds drives all n roles through the given number of rounds and
// verifies everyone observes the same round numbers in order.
func runRounds(t *testing.T, s Synchronizer, n, rounds int) {
	t.Helper()
	ctx := testCtx(t)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for want := 1; want <= rounds; want++ {
				got, err := s.Enroll(ctx, i)
				if err != nil {
					errs <- fmt.Errorf("role %d round %d: %w", i, want, err)
					return
				}
				if got != want {
					errs <- fmt.Errorf("role %d observed round %d, want %d", i, got, want)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCentralRounds(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := NewCentral(n)
			defer s.Close()
			runRounds(t, s, n, 5)
			st := s.Stats()
			if st.Rounds != 5 {
				t.Fatalf("rounds = %d, want 5", st.Rounds)
			}
			// 2n messages per round: n offers + n releases.
			if want := 5 * 2 * n; st.Messages != want {
				t.Fatalf("messages = %d, want %d", st.Messages, want)
			}
		})
	}
}

func TestRingRounds(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := NewRing(n)
			defer s.Close()
			runRounds(t, s, n, 5)
			st := s.Stats()
			if st.Rounds != 5 {
				t.Fatalf("rounds = %d, want 5", st.Rounds)
			}
			if n == 1 {
				if st.Messages != 0 {
					t.Fatalf("single-node ring sent %d messages", st.Messages)
				}
				return
			}
			// Roughly 2 laps per round (collect + release); the exact count
			// depends on where the token parks, so allow a small range.
			min, max := 5*(2*n-2), 5*2*n+2*n
			if st.Messages < min || st.Messages > max {
				t.Fatalf("messages = %d, want in [%d, %d]", st.Messages, min, max)
			}
		})
	}
}

func TestTreeRounds(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := NewTree(n)
			defer s.Close()
			runRounds(t, s, n, 5)
			st := s.Stats()
			if st.Rounds != 5 {
				t.Fatalf("rounds = %d, want 5", st.Rounds)
			}
			// 2(n-1) messages per round: done wave up + release wave down.
			if want := 5 * 2 * (n - 1); st.Messages != want {
				t.Fatalf("messages = %d, want %d", st.Messages, want)
			}
		})
	}
}

func TestTreeBoundsNodeLoadByDegree(t *testing.T) {
	const n, rounds = 15, 8 // full binary tree: max degree 3 (parent + 2 kids)
	s := NewTree(n)
	defer s.Close()
	runRounds(t, s, n, rounds)
	st := s.Stats()
	// An inner node touches at most 2 msgs per edge per round; with degree
	// <= 3 that bounds its load at 6 per round.
	if max := 6 * rounds; st.MaxNodeLoad > max {
		t.Fatalf("MaxNodeLoad = %d, want <= %d", st.MaxNodeLoad, max)
	}
}

func TestRingBalancesLoad(t *testing.T) {
	const n, rounds = 8, 10
	ring := NewRing(n)
	defer ring.Close()
	central := NewCentral(n)
	defer central.Close()
	runRounds(t, ring, n, rounds)
	runRounds(t, central, n, rounds)

	rs, cs := ring.Stats(), central.Stats()
	// The coordinator touches every message; a ring node touches O(1) per
	// round. This is the decentralization pay-off.
	if cs.MaxNodeLoad < rounds*2*n {
		t.Fatalf("central MaxNodeLoad = %d, want >= %d", cs.MaxNodeLoad, rounds*2*n)
	}
	if rs.MaxNodeLoad >= cs.MaxNodeLoad {
		t.Fatalf("ring MaxNodeLoad %d !< central %d", rs.MaxNodeLoad, cs.MaxNodeLoad)
	}
	if rs.PerRound() <= 0 || cs.PerRound() <= 0 {
		t.Fatal("PerRound must be positive")
	}
}

func TestSuccessiveRoundsAreSerialized(t *testing.T) {
	// A role cannot be in round r+1 while another is still waiting for
	// round r: observed round numbers per role must be strictly 1,2,3...
	// (runRounds asserts this); additionally, a fast role's next Enroll
	// must block until everyone has enrolled.
	for _, k := range kinds {
		s := k.mk(2)
		ctx := testCtx(t)
		done1 := make(chan struct{})
		go func() {
			_, _ = s.Enroll(ctx, 1)
			_, _ = s.Enroll(ctx, 1) // round 2: must block, role 2 absent
			close(done1)
		}()
		if _, err := s.Enroll(ctx, 2); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done1:
			t.Fatal("role 1 completed round 2 without role 2")
		case <-time.After(50 * time.Millisecond):
		}
		if _, err := s.Enroll(ctx, 2); err != nil {
			t.Fatal(err)
		}
		<-done1
		s.Close()
	}
}

// kinds is the one table the edge-case tests below run over: whatever holds
// of one synchronizer's Enroll, Close and context handling holds of all.
var kinds = []struct {
	name string
	mk   func(n int) Synchronizer
}{
	{"central", func(n int) Synchronizer { return NewCentral(n) }},
	{"ring", func(n int) Synchronizer { return NewRing(n) }},
	{"tree", func(n int) Synchronizer { return NewTree(n) }},
}

func TestEnrollValidation(t *testing.T) {
	ctx := testCtx(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.mk(3)
			if _, err := s.Enroll(ctx, 0); err == nil {
				t.Error("role 0 must be rejected")
			}
			if _, err := s.Enroll(ctx, 4); err == nil {
				t.Error("role 4 must be rejected")
			}
			s.Close()
			if _, err := s.Enroll(ctx, 1); err == nil {
				t.Error("Enroll after Close must fail")
			}

			// A size below one is a synchronizer of one role: it alone fills
			// every round, and no message is needed to learn that.
			one := k.mk(0)
			defer one.Close()
			if _, err := one.Enroll(ctx, 2); err == nil {
				t.Error("role 2 of a one-role synchronizer must be rejected")
			}
			for want := 1; want <= 2; want++ {
				if got, err := one.Enroll(ctx, 1); err != nil || got != want {
					t.Fatalf("one-role round = %d, %v; want %d", got, err, want)
				}
			}
			if st := one.Stats(); st.Rounds != 2 || (k.name != "central" && st.Messages != 0) {
				t.Errorf("one-role stats = %+v", st)
			}
		})
	}
}

func TestCloseUnblocksEnrollers(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.mk(3)
			errCh := make(chan error, 1)
			go func() {
				_, err := s.Enroll(context.Background(), 1)
				errCh <- err
			}()
			time.Sleep(30 * time.Millisecond)
			s.Close()
			select {
			case err := <-errCh:
				if err == nil {
					t.Fatal("enroll on closed synchronizer succeeded")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not unblock the enroller")
			}
			s.Close() // idempotent
		})
	}
}

func TestContextCancellation(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.mk(2)
			defer s.Close()
			cctx, cancel := context.WithCancel(context.Background())
			errCh := make(chan error, 1)
			go func() {
				_, err := s.Enroll(cctx, 1)
				errCh <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			if err := <-errCh; !errors.Is(err, context.Canceled) {
				// The enroller may already have been handed to the node, in which
				// case cancellation surfaces as a context error too.
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if st := s.Stats(); st.Rounds != 0 {
				t.Fatalf("a round committed without role 2: %+v", st)
			}
		})
	}
}

func TestStatsZeroRounds(t *testing.T) {
	s := NewCentral(4)
	defer s.Close()
	st := s.Stats()
	if st.Rounds != 0 || st.PerRound() != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
}
