package script_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/chaos"
	"github.com/scriptabs/goscript/internal/conform"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/perfbench"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/trace"
)

// The soaks check the runtime's contract end to end — every offer resolves, a
// performance completes or aborts with a meaningful culprit, successive
// activations stay apart — and each of them is a row of one driver, runSoak:
// a drive of workers, a watchdog over it, and a finale that drains every
// instance and checks what is left. A row says what it sets up, how its
// workers enroll, and what it checks beyond the finale; the error classes it
// allows are its row of soakAllowed. The rows that need the chaos build tag
// are in chaos_soak_test.go.

// errRole stands in an allow-list for any *core.RoleError: a role body that
// failed or panicked, or whose partner did.
var errRole = errors.New("a role body's error")

// soakAllowed is every soak's allow-list: the classes an enrollment may fail
// with. An error outside its soak's row is a violation.
var soakAllowed = map[string][]error{
	"random":    nil,
	"panicky":   {errRole},
	"contended": {context.Canceled},
	"chaos":     {context.Canceled, context.DeadlineExceeded, core.ErrPerformanceAborted, core.ErrDraining, core.ErrClosed, errRole},
	// The enroller's default circuit breaker can open under a burst of
	// severed connections; the fail-fast rejection is a legitimate
	// client-visible class.
	"net": {context.Canceled, context.DeadlineExceeded, core.ErrPerformanceAborted, core.ErrDraining, core.ErrClosed,
		remote.ErrConnLost, remote.ErrCircuitOpen, errRole},
	// With the resume window open every cut heals, and nothing but an offer
	// withdrawn or timed out before any performance may fail. With it shut,
	// the cut client loses its connection and its co-performer sees the
	// culprit-attributed abort.
	"resume":     {context.Canceled, context.DeadlineExceeded},
	"resume-off": {context.Canceled, context.DeadlineExceeded, remote.ErrConnLost, core.ErrPerformanceAborted},
	// Shedding is admission-only and retried: every enrollment completes. The
	// overload soak's local feeder offers b again when no a came in time.
	"overload":        nil,
	"overload feeder": {context.Canceled, context.DeadlineExceeded},
	"fleet":           nil,
	"probe":           nil,
}

// soakAllows returns the first of classes err belongs to (nil for success,
// which every soak allows) and whether there is one.
func soakAllows(err error, classes []error) (error, bool) {
	var re *core.RoleError
	for _, class := range classes {
		if errors.Is(err, class) || class == errRole && errors.As(err, &re) {
			return class, true
		}
	}
	return nil, err == nil
}

// soak is one row of the driver. Its drive is workers loops per name in
// roles, each either for rounds attempts or, with rounds 0, until dur has
// passed; each attempt's context ends after timeout, and the watchdog fires
// watch past dur. faults configures the injector, its Seed the row's seed;
// nil: no injector.
type soak struct {
	name                string // its row of soakAllowed
	seed                int64
	faults              *chaos.Config
	roles               []string
	workers, rounds     int
	dur, timeout, watch time.Duration
	setup               func(t testing.TB, inj *chaos.Injector, rep *soakReport) soakRig
}

// soakRig is what a row's setup built: the instances it drains and checks,
// one attempt, and the row's own assertions, run after the drive and before
// the drain (settle) and after the finale (check).
type soakRig struct {
	hosts         []soakHost
	try           func(ctx context.Context, w soakTry) error
	settle, check func()
}

// soakHost is one instance a soak drives, the trace it records, and how the
// finale drains it.
type soakHost struct {
	in    *core.Instance
	log   *trace.Log
	drain func(context.Context) error
}

// tracedHost is a new instance of def recording into a trace of its own.
func tracedHost(def core.Definition, opts ...core.Option) soakHost {
	log := &trace.Log{}
	in := core.NewInstance(def, append([]core.Option{core.WithTracer(log)}, opts...)...)
	return soakHost{in: in, log: log, drain: in.Drain}
}

// soakTry is one attempt: the worker's name, its index in the row's roles,
// the worker's number and round, and its random stream.
type soakTry struct {
	role             string
	r, worker, round int
	rng              *rand.Rand
}

func (w soakTry) pid() ids.PID { return ids.PID(fmt.Sprintf("%s%d", w.role, w.worker)) }

// soakReport is what a soak observed: its attempts, their outcomes by class
// (nil: success), and every violation of the contract.
type soakReport struct {
	attempted, resolved atomic.Uint64
	mu                  sync.Mutex
	seen                map[error]uint64
	violations          []string
}

func (r *soakReport) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// runSoak drives s and returns what it saw. A worker stops at its first error
// outside the row's classes; its stream is seeded with the row's seed, twice
// its number and its name's first byte.
func runSoak(t testing.TB, s soak) *soakReport {
	rep := &soakReport{seen: map[error]uint64{}}
	var inj *chaos.Injector
	if s.faults != nil {
		inj = chaos.New(*s.faults)
	}
	rig := s.setup(t, inj, rep)
	stop := time.Now().Add(s.dur)
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		for r, role := range s.roles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				try := soakTry{role: role, r: r, worker: w, rng: rand.New(rand.NewSource(s.seed + int64(w)*2 + int64(role[0])))}
				for ; s.rounds == 0 && time.Now().Before(stop) || try.round < s.rounds; try.round++ {
					rep.attempted.Add(1)
					ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
					err := rig.try(ctx, try)
					cancel()
					rep.resolved.Add(1)
					class, ok := soakAllows(err, soakAllowed[s.name])
					if !ok {
						rep.fail("unexpected enrollment error class: %v", err)
						return
					}
					rep.mu.Lock()
					rep.seen[class]++
					rep.mu.Unlock()
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.dur + s.watch):
		rep.fail("deadlocked: workers still blocked %v past the workload window", s.watch)
		for _, h := range rig.hosts {
			h.in.Close()
		}
		return rep
	}

	if rig.settle != nil {
		rig.settle()
	}
	for i, h := range rig.hosts {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := h.drain(ctx); err != nil {
			rep.fail("host %d: final Drain = %v", i, err)
		} else if !h.in.Closed() {
			rep.fail("host %d: instance not closed after final Drain", i)
		}
		cancel()
		if p := h.in.PendingOffers(); p != 0 {
			rep.fail("host %d: %d offers still pending after drain", i, p)
		}
		for _, v := range conform.CheckSemantics(h.log.Events()) {
			rep.fail("host %d: semantics: %s", i, v)
		}
	}
	if a, r := rep.attempted.Load(), rep.resolved.Load(); a != r {
		rep.fail("lost enrollments: %d attempted, %d resolved", a, r)
	}
	if inj != nil {
		if _, _, _, decisions := inj.Stats(); decisions == 0 {
			rep.fail("fault injector was never consulted — harness not wired in")
		}
	}
	if rig.check != nil {
		rig.check()
	}
	return rep
}

// soakTest runs s as a test, not in -short mode, failing with every violation
// the report holds.
func soakTest(t *testing.T, s soak) {
	if testing.Short() {
		t.Skip("soak is not short")
	}
	rep := runSoak(t, s)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	t.Logf("seed %d: %d enrollments; outcomes by class: %v", s.seed, rep.attempted.Load(), rep.seen)
	for _, v := range rep.violations {
		t.Errorf("%s soak (seed %d): %s", s.name, s.seed, v)
	}
}

// soakDur is a timed soak's window: def, or SCRIPT_CHAOS_SOAK (any Go
// duration) if it is set.
func soakDur(t *testing.T, def time.Duration) time.Duration {
	if s := os.Getenv("SCRIPT_CHAOS_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("SCRIPT_CHAOS_SOAK=%q: %v", s, err)
		}
		return d
	}
	return def
}

// pairScript is the two-role script of the soaks: a sends b one value. The
// roles not in local are played only by remote clients, which bring their own
// bodies.
func pairScript(name string, term core.Termination, local string) core.Definition {
	return core.NewScript(name).Role("a", pairBody("a", local)).Role("b", pairBody("b", local)).
		Initiation(core.DelayedInitiation).Termination(term).MustBuild()
}

var errLocalBody = errors.New("local body must not run")

// pairBody is role's body in pairScript, which fails at once if role is not
// among the roles it may run as: a definition's body for a role only remote
// clients play must never run. It panics first if its first argument is
// "panic".
func pairBody(role, runs string) core.RoleBody {
	return func(rc core.Ctx) error {
		switch {
		case !strings.Contains(runs, role):
			return errLocalBody
		case rc.Arg(0) == "panic":
			panic("soak: " + role + " panics")
		case role == "a":
			return rc.Send(ids.Role("b"), 1)
		}
		_, err := rc.Recv(ids.Role("a"))
		return err
	}
}

// panicIf is the arguments that make a pairBody panic, if panics.
func panicIf(panics bool) []any {
	if panics {
		return []any{"panic"}
	}
	return nil
}

// withdrawn is ctx cancelled: an offer withdrawn before, or a performance
// interrupted as soon as, it starts.
func withdrawn(ctx context.Context) context.Context {
	ctx, cancel := context.WithCancel(ctx)
	cancel()
	return ctx
}

// TestChaosSoak attaches the fault-injection harness to a busy instance —
// injected communication latency, dropped (late-redelivered) scheduler
// wakeups, spurious operation cancellations — and layers the runtime's own
// failure modes on top: panicking role bodies, pre-cancelled enrollments,
// and a performance deadline reclaiming whatever wedges.
//
// The default run is short; SCRIPT_CHAOS_SOAK=30s (any Go duration)
// lengthens it, and the chaos build tag adds a fixed-seed 30-second variant
// for CI (TestChaosSoakLong). The injector is seeded, so a failing seed
// reproduces the same fault decision stream.
func TestChaosSoak(t *testing.T) {
	soakTest(t, chaosSoak(2026, soakDur(t, 1200*time.Millisecond)))
}

func chaosSoak(seed int64, dur time.Duration) soak {
	return soak{name: "chaos", seed: seed, roles: []string{"a", "b"}, workers: 4, dur: dur,
		timeout: 2 * time.Second, watch: 30 * time.Second,
		faults: &chaos.Config{Seed: seed,
			OpDelayP: 0.20, OpDelayMax: 500 * time.Microsecond,
			WakeDelayP: 0.10, WakeDelayMax: time.Millisecond,
			CancelP: 0.05, CancelAfterMax: time.Millisecond,
			FastDelayP: 0.20, FastDelayMax: 500 * time.Microsecond,
			FastEvictP: 0.10,
		},
		setup: func(_ testing.TB, inj *chaos.Injector, _ *soakReport) soakRig {
			host := tracedHost(pairScript("chaotic", core.DelayedTermination, "ab"),
				core.WithFaultInjection(inj), core.WithPerformanceDeadline(250*time.Millisecond))
			return soakRig{hosts: []soakHost{host}, try: func(ctx context.Context, w soakTry) error {
				if w.rng.Intn(10) == 0 {
					ctx = withdrawn(ctx)
				}
				_, err := host.in.Enroll(ctx, core.Enrollment{PID: w.pid(), Role: ids.Role(w.role), Args: panicIf(w.rng.Intn(20) == 0)})
				return err
			}}
		},
	}
}

// TestSoakRandomWorkloads runs randomized broadcast workloads — random
// shape (star/pipeline/tree), size, fanout, round count, and enrollment
// interleavings — and validates every recorded trace against the semantic
// invariants and the shape's communication specification. Any lost wakeup,
// double fill, or cross-performance leak shows up as a conformance violation
// or a hang.
func TestSoakRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 25; trial++ {
		shape, n, fanout, rounds := []string{"star", "pipeline", "tree"}[rng.Intn(3)], rng.Intn(6)+1, rng.Intn(3)+1, rng.Intn(4)+1
		t.Run(fmt.Sprintf("trial=%d_%s_n=%d", trial, shape, n), func(t *testing.T) {
			soakTest(t, randomWorkload(shape, n, fanout, rounds))
		})
	}
}

// randomWorkload is one trial: the sender T and the recipients R1 to Rn each
// enroll for rounds performances.
func randomWorkload(shape string, n, fanout, rounds int) soak {
	def := map[string]core.Definition{
		"star": patterns.StarBroadcast(n), "pipeline": patterns.PipelineBroadcast(n), "tree": patterns.TreeBroadcast(n, fanout),
	}[shape]
	// The shape's channels: the star's sender sends to every recipient, the
	// others' to the first; a pipeline's recipient i to i+1, a tree's to its
	// fanout children.
	sender, recipient := ids.Role(patterns.RoleSender), patterns.RoleRecipient
	spec := conform.ChannelSpec{Allowed: func(from, to ids.RoleRef) bool {
		first := fanout*(from.Index-1) + 2
		switch {
		case shape == "star":
			return from == sender && to.Name == recipient
		case from == sender:
			return to == ids.Member(recipient, 1)
		case shape == "pipeline":
			return to == ids.Member(recipient, from.Index+1)
		}
		return to.Index >= first && to.Index < first+fanout
	}}
	roles := []string{"T"}
	for i := 1; i <= n; i++ {
		roles = append(roles, fmt.Sprintf("R%d", i))
	}
	return soak{name: "random", roles: roles, workers: 1, rounds: rounds, timeout: 30 * time.Second, watch: 30 * time.Second,
		setup: func(_ testing.TB, _ *chaos.Injector, rep *soakReport) soakRig {
			host := tracedHost(def)
			return soakRig{hosts: []soakHost{host}, try: func(ctx context.Context, w soakTry) error {
				if w.r == 0 {
					_, err := host.in.Enroll(ctx, core.Enrollment{PID: "T", Role: sender, Args: []any{w.round}})
					return err
				}
				res, err := host.in.Enroll(ctx, core.Enrollment{PID: ids.PID(w.role), Role: ids.Member(recipient, w.r)})
				if err == nil && res.Values[0] != res.Performance-1 {
					return fmt.Errorf("recipient %d got %v in performance %d (cross-performance leak)", w.r, res.Values[0], res.Performance)
				}
				return err
			}, check: func() {
				events := host.log.Events()
				for _, v := range conform.CheckChannels(events, spec) {
					rep.fail("channels: %s", v)
				}
				match := func(rr ids.RoleRef) bool { return rr.Name == recipient }
				for _, v := range conform.CheckReceiveCounts(events, conform.ReceiveCountSpec{Match: match, Count: 1}) {
					rep.fail("receive counts: %s", v)
				}
			}}
		},
	}
}

// TestSoakPanickingBodies hammers a two-role rendezvous in which either
// body may panic while its partner is blocked mid-communication, under both
// termination modes. The runtime's contract: the panicker reports a
// *RoleError, the blocked partner unwinds with ErrRoleFinished (never
// hangs), the instance keeps serving subsequent casts, and the recorded
// trace stays conformant.
func TestSoakPanickingBodies(t *testing.T) {
	for name, term := range map[string]core.Termination{"immediate": core.ImmediateTermination, "delayed": core.DelayedTermination} {
		t.Run(name, func(t *testing.T) {
			// Round r is the r-th performance of a and of b: a panics in it if
			// plan[r] is 0, b if it is 1.
			rng := rand.New(rand.NewSource(7))
			plan := make([]int, 60)
			for r := range plan {
				plan[r] = rng.Intn(4)
			}
			soakTest(t, soak{name: "panicky", seed: 7, roles: []string{"a", "b"}, workers: 1, rounds: len(plan),
				timeout: 30 * time.Second, watch: 30 * time.Second,
				setup: func(testing.TB, *chaos.Injector, *soakReport) soakRig {
					host := tracedHost(pairScript("panicky", term, "ab"))
					return soakRig{hosts: []soakHost{host}, try: func(ctx context.Context, w soakTry) error {
						_, err := host.in.Enroll(ctx, core.Enrollment{PID: ids.PID(strings.ToUpper(w.role)), Role: ids.Role(w.role),
							Args: panicIf(plan[w.round] == w.r)})
						if err != nil && w.r == 1 && plan[w.round] == 0 && !errors.Is(err, core.ErrRoleFinished) {
							return fmt.Errorf("round %d: b err = %v, want ErrRoleFinished after a's panic", w.round, err)
						}
						return err
					}}
				},
			})
		})
	}
}

// TestSoakContendedSingleRole hammers one role with many contenders and
// random cancellations, then validates the trace. Cancellation must never
// corrupt the performance sequence.
func TestSoakContendedSingleRole(t *testing.T) {
	soakTest(t, soak{name: "contended", roles: []string{"P"}, workers: 8, rounds: 25, timeout: 30 * time.Second, watch: 30 * time.Second,
		setup: func(testing.TB, *chaos.Injector, *soakReport) soakRig {
			host := tracedHost(perfbench.SlotScript(nil))
			return soakRig{hosts: []soakHost{host}, try: func(ctx context.Context, w soakTry) error {
				// A third of the attempts carry a pre-cancelled context,
				// exercising the withdrawal path under contention.
				if (w.worker+w.round)%3 == 0 {
					ctx = withdrawn(ctx)
				}
				_, err := host.in.Enroll(ctx, core.Enrollment{PID: w.pid(), Role: ids.Role("only")})
				return err
			}}
		},
	})
}

// TestDriverFinaleReportsEachViolation spoils one thing of a row in which a and
// b pair once on an instance the injector is wired into, and nothing but
// success is allowed: the driver must report it, and the unbroken row nothing.
func TestDriverFinaleReportsEachViolation(t *testing.T) {
	for name, c := range map[string]struct {
		want  string
		spoil func(rig *soakRig)
	}{
		"clean": {"", func(*soakRig) {}},
		"class": {"unexpected enrollment error class", func(rig *soakRig) {
			rig.try = func(context.Context, soakTry) error { return errors.New("an error of no class") }
		}},
		"lost": {"lost enrollments", func(rig *soakRig) {
			rig.try = func(context.Context, soakTry) error { runtime.Goexit(); return nil }
		}},
		"pending": {"offers still pending", func(rig *soakRig) {
			in := rig.hosts[0].in
			rig.hosts[0].drain = func(context.Context) error { return nil }
			rig.try = func(_ context.Context, w soakTry) error { // both offer a; nobody b
				go in.Enroll(context.Background(), core.Enrollment{PID: w.pid(), Role: ids.Role("a")}) //nolint:errcheck // ends at Close
				for in.PendingOffers() == 0 {
					time.Sleep(time.Millisecond)
				}
				return nil
			}
		}},
		"unconsulted": {"never consulted", func(rig *soakRig) {
			rig.try = func(context.Context, soakTry) error { return nil }
		}},
	} {
		rep := runSoak(t, soak{name: "probe", roles: []string{"a", "b"}, workers: 1, rounds: 1, faults: &chaos.Config{},
			timeout: 5 * time.Second, watch: 5 * time.Second,
			setup: func(t testing.TB, inj *chaos.Injector, _ *soakReport) soakRig {
				host := tracedHost(pairScript("probe", core.DelayedTermination, "ab"), core.WithFaultInjection(inj))
				t.Cleanup(host.in.Close)
				rig := soakRig{hosts: []soakHost{host}, try: func(ctx context.Context, w soakTry) error {
					_, err := host.in.Enroll(ctx, core.Enrollment{PID: w.pid(), Role: ids.Role(w.role)})
					return err
				}}
				c.spoil(&rig)
				return rig
			},
		})
		got := strings.Join(rep.violations, "\n")
		if c.want == "" && got != "" || !strings.Contains(got, c.want) {
			t.Errorf("%s: violations %q, want one reading %q", name, got, c.want)
		}
	}
}
