package script_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/chaos"
	"github.com/scriptabs/goscript/internal/conform"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/trace"
)

// TestChaosSoak attaches the fault-injection harness to a busy instance —
// injected communication latency, dropped (late-redelivered) scheduler
// wakeups, spurious operation cancellations — and layers the runtime's own
// failure modes on top: panicking role bodies, pre-cancelled enrollments,
// and a performance deadline reclaiming whatever wedges. It then asserts
// the hardening contract: no deadlock (a watchdog guards the whole run), no
// lost enrollment (every offer resolves), a clean final Drain, and a trace
// that still satisfies the semantic invariants.
//
// The default run is short; SCRIPT_CHAOS_SOAK=30s (any Go duration)
// lengthens it, and the chaos build tag adds a fixed-seed 30-second variant
// for CI. The injector is seeded, so a failing seed reproduces the same
// fault decision stream.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	dur := 1200 * time.Millisecond
	if s := os.Getenv("SCRIPT_CHAOS_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("SCRIPT_CHAOS_SOAK=%q: %v", s, err)
		}
		dur = d
	}
	runChaosSoak(t, 2026, dur)
}

// soakAllows reports whether err is an enrollment outcome of a class the
// calling soak accepts: the ones every soak does — success, and an offer
// withdrawn or timed out before any performance — or one of classes, the
// sentinels that soak's faults add.
func soakAllows(err error, classes ...error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	for _, class := range classes {
		if errors.Is(err, class) {
			return true
		}
	}
	return false
}

func runChaosSoak(t *testing.T, seed int64, dur time.Duration) {
	inj := chaos.New(chaos.Config{
		Seed:           seed,
		OpDelayP:       0.20,
		OpDelayMax:     500 * time.Microsecond,
		WakeDelayP:     0.10,
		WakeDelayMax:   time.Millisecond,
		CancelP:        0.05,
		CancelAfterMax: time.Millisecond,
		FastDelayP:     0.20,
		FastDelayMax:   500 * time.Microsecond,
		FastEvictP:     0.10,
	})

	// A two-role rendezvous where either body may panic mid-performance:
	// the panicking role finishes with an error, its partner unwinds with
	// ErrRoleFinished, and the runtime must stay consistent throughout.
	def := core.NewScript("chaotic").
		Role("a", func(rc core.Ctx) error {
			if rc.Arg(0) == "panic" {
				panic("chaos: a panics")
			}
			return rc.Send(ids.Role("b"), 1)
		}).
		Role("b", func(rc core.Ctx) error {
			if rc.Arg(0) == "panic" {
				panic("chaos: b panics")
			}
			_, err := rc.Recv(ids.Role("a"))
			return err
		}).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()

	var log trace.Log
	in := core.NewInstance(def,
		core.WithTracer(&log),
		core.WithFaultInjection(inj),
		core.WithPerformanceDeadline(250*time.Millisecond),
	)

	const workers = 4 // per role
	var attempts, resolved atomic.Uint64
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for _, role := range []string{"a", "b"} {
			w, role := w, role
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(w)*2 + int64(role[0])))
				for time.Now().Before(stop) {
					attempts.Add(1)
					ectx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					if rng.Intn(10) == 0 {
						cancel() // withdrawn offer / interrupted performance
					}
					var args []any
					if rng.Intn(20) == 0 {
						args = []any{"panic"}
					}
					_, err := in.Enroll(ectx, core.Enrollment{
						PID:  ids.PID(fmt.Sprintf("%s%d", role, w)),
						Role: ids.Role(role),
						Args: args,
					})
					cancel()
					resolved.Add(1)
					var re *core.RoleError
					if !soakAllows(err, core.ErrPerformanceAborted, core.ErrDraining, core.ErrClosed) && !errors.As(err, &re) {
						t.Errorf("unexpected enrollment error class: %v", err)
						return
					}
				}
			}()
		}
	}

	// Watchdog: the workload plus drain must finish well before this.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(dur + 30*time.Second):
		t.Fatalf("chaos soak deadlocked (seed %d): workers still blocked 30s past the workload window", seed)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := in.Drain(dctx); err != nil {
		t.Fatalf("final Drain = %v (seed %d)", err, seed)
	}
	if !in.Closed() {
		t.Fatalf("instance not closed after final Drain (seed %d)", seed)
	}
	if got, want := resolved.Load(), attempts.Load(); got != want {
		t.Fatalf("lost enrollments: %d attempted, %d resolved (seed %d)", want, got, seed)
	}
	if p := in.PendingEnrollments(); p != 0 {
		t.Fatalf("%d offers still pending after drain (seed %d)", p, seed)
	}

	for _, v := range conform.CheckSemantics(log.Events()) {
		t.Errorf("semantics (seed %d): %s", seed, v)
	}

	op, wake, cancels, decisions := inj.Stats()
	fastDelays, fastEvicts := inj.FastStats()
	t.Logf("seed %d: %d enrollments, %d fault decisions (%d op delays, %d wake drops, %d spurious cancels, %d fast delays, %d fast evicts), %d performances",
		seed, attempts.Load(), decisions, op, wake, cancels, fastDelays, fastEvicts, in.Performances())
	if decisions == 0 {
		t.Error("fault injector was never consulted — harness not wired in")
	}
}
