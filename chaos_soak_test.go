//go:build chaos

package script_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/chaos"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/perfbench"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/trace"
)

// The soaks CI's chaos-soak job runs, each a row of the driver in
// soak_test.go.

// serve starts a loopback remote.Host for host's instance, closed when the
// test ends, and makes the finale drain the instance through it.
func serve(t testing.TB, host *soakHost, cfg remote.HostConfig) *remote.Host {
	h := closing(t, remote.NewHost(host.in, cfg))
	if err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go h.Serve()
	host.drain = h.Drain
	return h
}

// closing is c, closed when the test ends.
func closing[C io.Closer](t testing.TB, c C) C {
	t.Cleanup(func() { c.Close() })
	return c
}

// retryPolicy is the enrollers' in the soaks whose every enrollment must
// complete.
func retryPolicy(seed int64) remote.RetryPolicy {
	return remote.RetryPolicy{MaxAttempts: 10000, BaseBackoff: time.Millisecond, MaxBackoff: 25 * time.Millisecond, Seed: seed}
}

// TestChaosSoakLong is the CI chaos job: a 30-second fixed-seed soak under
// the race detector (go test -race -tags chaos -run TestChaosSoakLong).
// The fixed seed makes the injector's fault decision stream reproducible,
// so a CI failure can be replayed locally with the same seed.
func TestChaosSoakLong(t *testing.T) {
	soakTest(t, chaosSoak(20260806, 30*time.Second))
}

// TestChaosSoakNet extends the chaos soak across the wire: every enrollment
// goes through a remote.Host over loopback TCP, with the injector severing
// connections at frame boundaries (disconnect during rendezvous → the
// culprit-attributed abort path), stalling client heartbeats past the
// host's timeout (silent-peer abort path), and delaying frames. The
// contract is the local soak's, and every error a client sees must belong
// to a known class.
func TestChaosSoakNet(t *testing.T) {
	const seed = 20260806
	soakTest(t, soak{name: "net", seed: seed, roles: []string{"a", "b"}, workers: 4, dur: soakDur(t, 5*time.Second),
		timeout: 3 * time.Second, watch: 30 * time.Second,
		faults: &chaos.Config{Seed: seed,
			NetDelayP: 0.05, NetDelayMax: 2 * time.Millisecond,
			// Per-frame drop probability; at a handful of frames per enrollment
			// this severs a few percent of them, some mid-rendezvous.
			NetDropP: 0.004,
			// Stalls are drawn up to twice the host's heartbeat timeout, so
			// roughly half the stalled heartbeats look like a dead peer.
			NetStallP: 0.02, NetStallMax: 500 * time.Millisecond,
			// Client-side mid-op cuts: with no resume window on these hosts they
			// land on the same culprit-attributed abort path as the drops.
			NetCutP: 0.01,
		},
		setup: func(t testing.TB, inj *chaos.Injector, rep *soakReport) soakRig {
			host := tracedHost(pairScript("chaotic_net", core.DelayedTermination, ""), core.WithPerformanceDeadline(500*time.Millisecond))
			cfg := remote.HostConfig{HeartbeatTimeout: 250 * time.Millisecond, WriteTimeout: 5 * time.Second, Faults: inj}
			h := serve(t, &host, cfg)
			// A second host serves the same instance pinned to wire protocol v1:
			// clients dialing it advertise v2 and are negotiated down mid-soak, so
			// performances mix v2-multiplexed participants with fallback-v1 ones
			// under the same fault injection.
			cfg.MaxProtocolVersion = 1
			hV1 := serve(t, &host, cfg)
			host.drain = func(ctx context.Context) error { hV1.Close(); return h.Drain(ctx) }
			var enrollers []*remote.Enroller
			for _, h := range []*remote.Host{h, hV1} {
				enrollers = append(enrollers, closing(t, remote.NewEnroller(h.Addr().String(),
					remote.EnrollerConfig{Script: "chaotic_net", HeartbeatInterval: 50 * time.Millisecond, Faults: inj})))
			}
			return soakRig{hosts: []soakHost{host}, try: func(ctx context.Context, w soakTry) error {
				if w.rng.Intn(10) == 0 {
					ctx = withdrawn(ctx)
				}
				enr, body := enrollers[w.rng.Intn(len(enrollers))], pairBody(w.role, "ab")
				if w.rng.Intn(25) == 0 {
					body = func(core.Ctx) error { panic("chaos: remote body panics") }
				}
				_, err := enr.Enroll(ctx, core.Enrollment{PID: w.pid(), Role: ids.Role(w.role), Body: body})
				return err
			}, check: func() {
				if delays, drops, stalls := inj.NetStats(); delays+drops+stalls+inj.NetCutCount() == 0 {
					rep.fail("network fault injector never fired — harness not wired in")
				}
			}}
		},
	})
}

// TestChaosSoakNetResume is the churn soak: clients hammer a v2 host whose
// resume window is open while the injector severs their live connections
// mid-op at p=0.02. Every blip must be invisible — zero aborted admitted
// performances, zero ErrConnLost — and the trace must conform with no abort
// events at all.
func TestChaosSoakNetResume(t *testing.T) {
	soakTest(t, churnSoak(20260807, soakDur(t, 5*time.Second), true))
}

// TestChaosSoakNetResumeOff is the counterfactual: the identical drive (same
// seed, same cut probability) with the resume window disabled must reproduce
// the failure taxonomy — cuts surface as ErrConnLost on the cut client and
// culprit-attributed *AbortError on its co-performer, and nothing outside
// the pre-resumption error classes ever appears.
func TestChaosSoakNetResumeOff(t *testing.T) {
	soakTest(t, churnSoak(20260807, soakDur(t, 5*time.Second), false))
}

func churnSoak(seed int64, dur time.Duration, resume bool) soak {
	name, cfg := "resume-off", remote.HostConfig{HeartbeatTimeout: 250 * time.Millisecond, WriteTimeout: 5 * time.Second}
	if resume {
		name, cfg.ResumeWindow = "resume", 5*time.Second
	}
	return soak{name: name, seed: seed, roles: []string{"a", "b"}, workers: 4, dur: dur, timeout: 10 * time.Second, watch: 60 * time.Second,
		// The churn under test: sever the client's live connection at op
		// entry, mid-performance.
		faults: &chaos.Config{Seed: seed, NetDelayP: 0.05, NetDelayMax: 2 * time.Millisecond, NetCutP: 0.02},
		setup: func(t testing.TB, inj *chaos.Injector, rep *soakReport) soakRig {
			host := tracedHost(pairScript("churn_net", core.DelayedTermination, ""))
			h := serve(t, &host, cfg)
			// The breaker is disabled so the off-case keeps offering through the
			// cut bursts instead of collapsing into fast-fail rejections — both
			// arms then drive the identical schedule, which is what makes the
			// zero-vs-nonzero abort comparison meaningful.
			enr := closing(t, remote.NewEnroller(h.Addr().String(), remote.EnrollerConfig{Script: "churn_net", HeartbeatInterval: 50 * time.Millisecond,
				Faults: inj, Breaker: remote.BreakerConfig{FailureThreshold: -1}}))
			return soakRig{hosts: []soakHost{host}, try: func(ctx context.Context, w soakTry) error {
				_, err := enr.Enroll(ctx, core.Enrollment{PID: w.pid(), Role: ids.Role(w.role), Body: pairBody(w.role, "ab")})
				var ae *core.AbortError
				if errors.As(err, &ae) && !errors.Is(err, remote.ErrConnLost) && !strings.Contains(ae.Reason, "disconnected") {
					return fmt.Errorf("abort reason %q, want the disconnect attribution", ae.Reason)
				}
				return err
			}, check: func() {
				aborts := len(host.log.Filter(func(e trace.Event) bool { return e.Kind == trace.KindAbort }))
				cuts := inj.NetCutCount()
				if cuts == 0 {
					rep.fail("no connection cuts were injected — churn harness not wired in")
				}
				if resume && aborts != 0 {
					rep.fail("resumption-on soak recorded %d abort events, want 0", aborts)
				}
				// The counterfactual must show the cuts biting: the same schedule
				// with no grace window produces client-visible connection losses.
				if !resume && rep.seen[remote.ErrConnLost]+rep.seen[core.ErrPerformanceAborted] == 0 {
					rep.fail("resumption-off soak saw no ErrConnLost/aborts under %d cuts", cuts)
				}
			}}
		},
	}
}

// TestChaosSoakOverload saturates a capped host: 4× the admission cap of
// concurrent remote clients hammer one script instance while the injector
// fires extra ErrOverloaded bursts on top of the genuine cap sheds. The
// overload-protection contract under test:
//
//   - shedding is admission-only — zero in-flight performances abort (every
//     enrollment, admitted or retried, ultimately returns nil);
//   - every retrying client eventually completes under the backoff policy;
//   - the trace still conforms after the stampede.
//
// The matching side (role b) enrolls locally, bypassing host admission, so
// the cap can never be filled by unmatched offers of a single role — the
// soak exercises overload shedding, not an application-level pairing
// deadlock.
func TestChaosSoakOverload(t *testing.T) {
	// capN is the host's admission cap, clients the concurrent remote
	// enrollers (4× the cap), rounds the enrollments each completes.
	const seed, capN, clients, rounds = 20260806, 4, 4 * 4, 25
	soakTest(t, soak{name: "overload", seed: seed, roles: []string{"a"}, workers: clients, rounds: rounds,
		timeout: 60 * time.Second, watch: 120 * time.Second,
		// Injected overload bursts ride on top of the genuine cap sheds. No
		// drops or stalls: this soak asserts *zero* aborted performances, so
		// the only faults are admission-level ones that must never touch
		// admitted work.
		faults: &chaos.Config{Seed: seed, OverloadP: 0.05},
		setup: func(t testing.TB, inj *chaos.Injector, rep *soakReport) soakRig {
			host := tracedHost(pairScript("overload_net", core.DelayedTermination, "b"))
			h := serve(t, &host, remote.HostConfig{MaxEnrollments: capN, RetryAfter: 5 * time.Millisecond, Faults: inj})
			enr := closing(t, remote.NewEnroller(h.Addr().String(), remote.EnrollerConfig{Script: "overload_net", Retry: retryPolicy(seed)}))

			// Local b-side feeder: always ready to match an admitted a, stopped
			// once every remote client is done. An offer no a matched inside its
			// second is made again.
			feedCtx, stopFeed := context.WithCancel(context.Background())
			var feedWG sync.WaitGroup
			var matched atomic.Uint64
			for f := 0; f < capN; f++ {
				feedWG.Add(1)
				go func() {
					defer feedWG.Done()
					for feedCtx.Err() == nil {
						ctx, cancel := context.WithTimeout(feedCtx, time.Second)
						_, err := host.in.Enroll(ctx, core.Enrollment{PID: ids.PID(fmt.Sprintf("b%d", f)), Role: ids.Role("b")})
						cancel()
						if class, ok := soakAllows(err, soakAllowed["overload feeder"]); !ok {
							rep.fail("local b enrollment: %v", err)
							return
						} else if class == nil {
							matched.Add(1)
						}
					}
				}()
			}
			host.drain = func(ctx context.Context) error { stopFeed(); feedWG.Wait(); return h.Drain(ctx) }
			return soakRig{hosts: []soakHost{host}, try: func(ctx context.Context, w soakTry) error {
				_, err := enr.Enroll(ctx, core.Enrollment{PID: w.pid(), Role: ids.Role("a"), Body: pairBody("a", "a")})
				return err
			}, check: func() {
				if got := matched.Load(); got != clients*rounds {
					rep.fail("matched %d b-sides, want %d", got, clients*rounds)
				}
				if h.Stats().ShedEnrollments == 0 {
					rep.fail("no enrollments shed at 4× the admission cap — overload path never exercised")
				}
				if inj.OverloadCount() == 0 {
					rep.fail("overload fault injector never fired")
				}
			}}
		},
	})
}

// TestChaosSoakFleet runs the fleet fabric under a hostile discovery plane:
// three in-process hosts announce themselves over gossip whose packets the
// injector drops, delays, duplicates, and stales, while injected overload
// bursts force the balanced enroller to reroute mid-soak. The contracts
// under test:
//
//   - gossip is anti-entropy: membership still converges to all three hosts
//     and never evicts a live one, whatever the packet faults;
//   - rerouting is admission-only: every enrollment completes somewhere and
//     zero admitted performances abort;
//   - every host's trace still conforms after the stampede.
func TestChaosSoakFleet(t *testing.T) {
	const seed, fleetN, capN, clients, rounds = 20260808, 3, 4, 16, 20
	soakTest(t, soak{name: "fleet", seed: seed, roles: []string{"C"}, workers: clients, rounds: rounds,
		timeout: 60 * time.Second, watch: 120 * time.Second,
		faults: &chaos.Config{Seed: seed,
			// Discovery-plane faults: lossy, laggy, duplicating gossip with
			// stale load digests. No conn drops or heartbeat stalls — the soak
			// asserts zero aborts, so only faults that must never touch
			// admitted work are in play.
			GossipDropP: 0.2, GossipDelayP: 0.2, GossipDelayMax: 30 * time.Millisecond, GossipDupP: 0.2, GossipStaleP: 0.3,
			// Admission-level overload bursts on top of the genuine cap sheds
			// keep the balancer rerouting.
			OverloadP: 0.05,
			// Mid-op connection cuts ride the fleet too: every host opens a
			// resume window, so the blips heal invisibly and the zero-abort
			// contract below still holds.
			NetCutP: 0.02,
		},
		setup: func(t testing.TB, inj *chaos.Injector, rep *soakReport) soakRig {
			gossip := func(seeds []string, seed int64) *registry.Gossip {
				g, err := registry.NewGossip(registry.GossipConfig{Bind: "127.0.0.1:0", Seeds: seeds, Interval: 15 * time.Millisecond, Seed: seed, Faults: inj})
				if err != nil {
					t.Fatalf("gossip: %v", err)
				}
				return closing(t, g)
			}
			var rig soakRig
			var seedAddrs []string
			for i := 0; i < fleetN; i++ {
				host := tracedHost(perfbench.SlotScript(func(core.Ctx) error { return errLocalBody }))
				h := serve(t, &host, remote.HostConfig{MaxEnrollments: capN, RetryAfter: 5 * time.Millisecond, ResumeWindow: 5 * time.Second, Faults: inj})
				g := gossip(seedAddrs, seed+int64(i))
				seedAddrs = append(seedAddrs, g.Addr())
				g.Announce(registry.Endpoint{Addr: h.Addr().String(), Scripts: []string{"slot"}}, func() registry.Load {
					st := h.Stats()
					return registry.Load{Conns: st.Conns, Enrolling: st.Enrolling, PendingOffers: host.in.PendingOffers()}
				})
				rig.hosts = append(rig.hosts, host)
			}
			// The client's own gossip node rides the same faulty plane, and the
			// client side carries the injector too: mid-op cuts are drawn at the
			// enroller's op entry.
			enr := closing(t, remote.NewEnrollerRegistry(gossip([]string{seedAddrs[0]}, seed+100), remote.EnrollerConfig{Script: "slot",
				Balancer: remote.NewLeastLoaded(), Faults: inj, Retry: retryPolicy(seed)}))
			// Convergence under fire: drops and delays slow anti-entropy down
			// but cannot stop it.
			for deadline := time.Now().Add(30 * time.Second); len(enr.Hosts()) != fleetN; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("discovery did not converge (seed %d): %v", seed, enr.Hosts())
				}
			}
			// One wire op per enrollment gives the injector its mid-op cut
			// point; the resumed session must answer it anyway.
			body := func(rc core.Ctx) error {
				if !rc.Filled(ids.Role("only")) {
					return errors.New("own role not filled")
				}
				return nil
			}
			rig.try = func(ctx context.Context, w soakTry) error {
				_, err := enr.Enroll(ctx, core.Enrollment{PID: w.pid(), Role: ids.Role("only"), Body: body})
				return err
			}
			// No live host was evicted by the faulty plane.
			rig.settle = func() {
				if got := len(enr.Hosts()); got != fleetN {
					rep.fail("host set shrank to %d under gossip faults: %v", got, enr.Hosts())
				}
			}
			rig.check = func() {
				performed := 0
				for _, h := range rig.hosts {
					performed += h.in.Performances()
				}
				if performed != clients*rounds {
					rep.fail("fleet performed %d enrollments, want %d", performed, clients*rounds)
				}
				if drops, delays, dups, stales := inj.GossipStats(); drops == 0 || delays == 0 || dups == 0 || stales == 0 {
					rep.fail("gossip faults never fired: drops=%d delays=%d dups=%d stales=%d", drops, delays, dups, stales)
				}
				if inj.NetCutCount() == 0 {
					rep.fail("no mid-op connection cuts fired — churn harness not wired in")
				}
			}
			return rig
		},
	})
}
