//go:build chaos

package script_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/chaos"
	"github.com/scriptabs/goscript/internal/conform"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/trace"
)

// TestChaosSoakNet extends the chaos soak across the wire: every enrollment
// goes through a remote.Host over loopback TCP, with the injector severing
// connections at frame boundaries (disconnect during rendezvous → the
// culprit-attributed abort path), stalling client heartbeats past the
// host's timeout (silent-peer abort path), and delaying frames. The
// hardening contract is the same as the local soak: no deadlock, no lost
// enrollment, a clean final drain, and a conforming trace — plus every
// error a client sees must belong to a known class.
func TestChaosSoakNet(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	dur := 5 * time.Second
	if s := os.Getenv("SCRIPT_CHAOS_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("SCRIPT_CHAOS_SOAK=%q: %v", s, err)
		}
		dur = d
	}
	runChaosSoakNet(t, 20260806, dur)
}

func runChaosSoakNet(t *testing.T, seed int64, dur time.Duration) {
	inj := chaos.New(chaos.Config{
		Seed:        seed,
		NetDelayP:   0.05,
		NetDelayMax: 2 * time.Millisecond,
		// Per-frame drop probability; at a handful of frames per enrollment
		// this severs a few percent of them, some mid-rendezvous.
		NetDropP: 0.004,
		// Stalls are drawn up to twice the host's heartbeat timeout, so
		// roughly half the stalled heartbeats look like a dead peer.
		NetStallP:   0.02,
		NetStallMax: 500 * time.Millisecond,
		// Client-side mid-op cuts: with no resume window on these hosts they
		// land on the same culprit-attributed abort path as the drops.
		NetCutP: 0.01,
	})

	def := core.NewScript("chaotic_net").
		Role("a", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Role("b", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()

	var log trace.Log
	in := core.NewInstance(def,
		core.WithTracer(&log),
		core.WithPerformanceDeadline(500*time.Millisecond),
	)

	h := remote.NewHost(in, remote.HostConfig{
		HeartbeatTimeout: 250 * time.Millisecond,
		WriteTimeout:     5 * time.Second,
		Faults:           inj,
	})
	if err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go h.Serve()
	addr := h.Addr().String()

	// A second host serves the same instance pinned to wire protocol v1:
	// clients dialing it advertise v2 and are negotiated down mid-soak, so
	// performances mix v2-multiplexed participants with fallback-v1 ones
	// under the same fault injection.
	hV1 := remote.NewHost(in, remote.HostConfig{
		HeartbeatTimeout:   250 * time.Millisecond,
		WriteTimeout:       5 * time.Second,
		Faults:             inj,
		MaxProtocolVersion: 1,
	})
	if err := hV1.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen (v1 host): %v", err)
	}
	go hV1.Serve()

	enr := remote.NewEnroller(addr, remote.EnrollerConfig{
		Script:            "chaotic_net",
		HeartbeatInterval: 50 * time.Millisecond,
		Faults:            inj,
	})
	defer enr.Close()
	enrV1 := remote.NewEnroller(hV1.Addr().String(), remote.EnrollerConfig{
		Script:            "chaotic_net",
		HeartbeatInterval: 50 * time.Millisecond,
		Faults:            inj,
	})
	defer enrV1.Close()
	enrollers := []*remote.Enroller{enr, enrV1}

	clientBody := func(role string, rng *rand.Rand, panicky bool) core.RoleBody {
		return func(rc core.Ctx) error {
			if panicky {
				panic("chaos: remote body panics")
			}
			if role == "a" {
				return rc.Send(ids.Role("b"), 1)
			}
			_, err := rc.Recv(ids.Role("a"))
			return err
		}
	}

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
					ectx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
					if rng.Intn(10) == 0 {
						cancel() // withdrawn offer / interrupted performance
					}
					_, err := enrollers[rng.Intn(len(enrollers))].Enroll(ectx, core.Enrollment{
						PID:  ids.PID(fmt.Sprintf("%s%d", role, w)),
						Role: ids.Role(role),
						Body: clientBody(role, rng, rng.Intn(25) == 0),
					})
					cancel()
					resolved.Add(1)
					// The enroller's default circuit breaker can open under a
					// burst of severed connections; the fail-fast rejection is
					// a legitimate client-visible class.
					var re *core.RoleError
					if !soakAllows(err, core.ErrPerformanceAborted, core.ErrDraining, core.ErrClosed,
						remote.ErrConnLost, remote.ErrCircuitOpen) && !errors.As(err, &re) {
						t.Errorf("unexpected enrollment error class: %v", err)
						return
					}
				}
			}()
		}
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(dur + 30*time.Second):
		t.Fatalf("net chaos soak deadlocked (seed %d): workers still blocked 30s past the workload window", seed)
	}

	hV1.Close()
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := h.Drain(dctx); err != nil {
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

	netDelays, netDrops, netStalls := inj.NetStats()
	netCuts := inj.NetCutCount()
	t.Logf("seed %d: %d enrollments, %d frame delays, %d dropped conns, %d heartbeat stalls, %d mid-op cuts, %d performances",
		seed, attempts.Load(), netDelays, netDrops, netStalls, netCuts, in.Performances())
	if netDelays+netDrops+netStalls+netCuts == 0 {
		t.Error("network fault injector was never consulted — harness not wired in")
	}
}

// TestChaosSoakNetResume is the tentpole acceptance soak: clients hammer a
// v2 host whose resume window is open while the injector severs their live
// connections mid-op at p=0.02. Every blip must be invisible — zero aborted
// admitted performances, zero ErrConnLost — and the trace must conform with
// no abort events at all.
func TestChaosSoakNetResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	runChaosSoakNetChurn(t, 20260807, soakDur(t), true)
}

// TestChaosSoakNetResumeOff is the counterfactual: the identical drive (same
// seed, same cut probability) with the resume window disabled must reproduce
// today's failure taxonomy — cuts surface as ErrConnLost on the cut client
// and culprit-attributed *AbortError on its co-performer, and nothing
// outside the pre-resumption error classes ever appears.
func TestChaosSoakNetResumeOff(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	runChaosSoakNetChurn(t, 20260807, soakDur(t), false)
}

func soakDur(t *testing.T) time.Duration {
	dur := 5 * time.Second
	if s := os.Getenv("SCRIPT_CHAOS_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("SCRIPT_CHAOS_SOAK=%q: %v", s, err)
		}
		dur = d
	}
	return dur
}

func runChaosSoakNetChurn(t *testing.T, seed int64, dur time.Duration, resume bool) {
	inj := chaos.New(chaos.Config{
		Seed:        seed,
		NetDelayP:   0.05,
		NetDelayMax: 2 * time.Millisecond,
		// The churn under test: sever the client's live connection at op
		// entry, mid-performance.
		NetCutP: 0.02,
	})

	def := core.NewScript("churn_net").
		Role("a", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Role("b", func(rc core.Ctx) error { return errors.New("local body must not run") }).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()

	var log trace.Log
	in := core.NewInstance(def, core.WithTracer(&log))

	cfg := remote.HostConfig{
		HeartbeatTimeout: 250 * time.Millisecond,
		WriteTimeout:     5 * time.Second,
	}
	if resume {
		cfg.ResumeWindow = 5 * time.Second
	}
	h := remote.NewHost(in, cfg)
	if err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go h.Serve()

	enr := remote.NewEnroller(h.Addr().String(), remote.EnrollerConfig{
		Script:            "churn_net",
		HeartbeatInterval: 50 * time.Millisecond,
		Faults:            inj,
		// The breaker is disabled so the off-case keeps offering through the
		// cut bursts instead of collapsing into fast-fail rejections — both
		// arms then drive the identical schedule, which is what makes the
		// zero-vs-nonzero abort comparison meaningful.
		Breaker: remote.BreakerConfig{FailureThreshold: -1},
	})
	defer enr.Close()

	const workers = 4 // per role
	var attempts, resolved, connLost, aborted atomic.Uint64
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for _, role := range []string{"a", "b"} {
			w, role := w, role
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					attempts.Add(1)
					ectx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					_, err := enr.Enroll(ectx, core.Enrollment{
						PID:  ids.PID(fmt.Sprintf("%s%d", role, w)),
						Role: ids.Role(role),
						Body: func(rc core.Ctx) error {
							if role == "a" {
								return rc.Send(ids.Role("b"), 1)
							}
							_, err := rc.Recv(ids.Role("a"))
							return err
						},
					})
					cancel()
					resolved.Add(1)
					switch {
					case soakAllows(err):
						// Success, or a straggler whose partner pool stopped: the
						// offer was withdrawn before any performance started. Not
						// an abort.
					case errors.Is(err, remote.ErrConnLost):
						connLost.Add(1)
						if resume {
							t.Errorf("ErrConnLost with the resume window open: %v", err)
							return
						}
					case errors.Is(err, core.ErrPerformanceAborted):
						aborted.Add(1)
						if resume {
							t.Errorf("admitted performance aborted with the resume window open: %v", err)
							return
						}
						var ae *core.AbortError
						if errors.As(err, &ae) && !strings.Contains(ae.Reason, "disconnected") {
							t.Errorf("abort reason %q, want the disconnect attribution", ae.Reason)
							return
						}
					default:
						t.Errorf("unexpected enrollment error class (resume=%v): %v", resume, err)
						return
					}
				}
			}()
		}
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(dur + 60*time.Second):
		t.Fatalf("churn soak deadlocked (seed %d, resume=%v)", seed, resume)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := h.Drain(dctx); err != nil {
		t.Fatalf("final Drain = %v (seed %d, resume=%v)", err, seed, resume)
	}
	if got, want := resolved.Load(), attempts.Load(); got != want {
		t.Fatalf("lost enrollments: %d attempted, %d resolved (seed %d)", want, got, seed)
	}

	for _, v := range conform.CheckSemantics(log.Events()) {
		t.Errorf("semantics (seed %d, resume=%v): %s", seed, resume, v)
	}
	var traceAborts int
	for _, e := range log.Events() {
		if e.Kind == trace.KindAbort {
			traceAborts++
		}
	}

	cuts := inj.NetCutCount()
	if cuts == 0 {
		t.Errorf("no connection cuts were injected — churn harness not wired in (seed %d)", seed)
	}
	if resume {
		if traceAborts != 0 {
			t.Errorf("resumption-on soak recorded %d abort events, want 0 (seed %d)", traceAborts, seed)
		}
	} else {
		// The counterfactual must show the cuts biting: the same schedule
		// with no grace window produces client-visible connection losses.
		if connLost.Load()+aborted.Load() == 0 {
			t.Errorf("resumption-off soak saw no ErrConnLost/aborts under %d cuts (seed %d)", cuts, seed)
		}
	}
	t.Logf("seed %d resume=%v: %d enrollments, %d cuts, %d conn-lost, %d aborted, %d abort trace events, %d performances",
		seed, resume, attempts.Load(), cuts, connLost.Load(), aborted.Load(), traceAborts, in.Performances())
}
