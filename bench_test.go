// Benchmarks: one per experiment of DESIGN.md's paper index (E01–E14), each
// regenerating the performance-relevant side of the corresponding paper
// figure or claim (cmd/scriptbench prints the semantic tables), plus E15–E17,
// engineering benchmarks that are not paper figures. The enrollment loops of
// E02–E04 and E15–E17 are internal/perfbench's drivers, which the acceptance
// suite (scriptbench -json) times too; its IDs are its own, not this index.
package script_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/scriptabs/goscript/internal/ada"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/csp"
	"github.com/scriptabs/goscript/internal/dist"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/locktable"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/perfbench"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/sim"
	"github.com/scriptabs/goscript/internal/trans/adax"
	"github.com/scriptabs/goscript/internal/trans/cspx"
	"github.com/scriptabs/goscript/internal/trans/monx"
)

// BenchmarkE01SuccessivePerformances measures the cost of the successive-
// activation barrier itself: a minimal three-role script with empty bodies,
// one performance per iteration (Figure 1's machinery).
func BenchmarkE01SuccessivePerformances(b *testing.B) {
	def := core.NewScript("fig1").
		Role("p", func(rc core.Ctx) error { return nil }).
		Role("q", func(rc core.Ctx) error { return nil }).
		Role("r", func(rc core.Ctx) error { return nil }).
		Initiation(core.ImmediateInitiation).
		Termination(core.ImmediateTermination).
		MustBuild()
	in := core.NewInstance(def)
	defer in.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for _, role := range []string{"q", "r"} {
		role := role
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := in.Enroll(ctx, core.Enrollment{
					PID: ids.PID(role + "-proc"), Role: ids.Role(role),
				}); err != nil {
					return
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Enroll(ctx, core.Enrollment{PID: "p-proc", Role: ids.Role("p")}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cancel()
	in.Close()
	wg.Wait()
}

// BenchmarkE02RepeatedEnrollment measures Figure 2's repeated-enrollment
// pairing: one broadcast performance per iteration with two recipients.
func BenchmarkE02RepeatedEnrollment(b *testing.B) {
	perfbench.Broadcast(b, patterns.StarBroadcast(2), 2)
}

// BenchmarkE03StarBroadcast measures Figure 3's performance cost across
// recipient counts.
func BenchmarkE03StarBroadcast(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			perfbench.Broadcast(b, patterns.StarBroadcast(n), n)
		})
	}
}

// BenchmarkE04PipelineBroadcast measures Figure 4's pipeline across
// recipient counts (compare with E03 at equal N for the policy trade-off).
func BenchmarkE04PipelineBroadcast(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			perfbench.Broadcast(b, patterns.PipelineBroadcast(n), n)
		})
	}
}

// BenchmarkE05LockManager measures Figure 5's lock-manager script: one
// lock+release cycle per iteration, per strategy and operation kind.
func BenchmarkE05LockManager(b *testing.B) {
	for _, strat := range []patterns.LockStrategy{
		patterns.OneReadAllWrite(), patterns.MajorityLocking(), patterns.MultiGranularity(),
	} {
		for _, write := range []bool{false, true} {
			kind := "read"
			if write {
				kind = "write"
			}
			b.Run(fmt.Sprintf("strategy=%s/op=%s", strat.Name, kind), func(b *testing.B) {
				const k = 3
				ctx, cancel := context.WithCancel(context.Background())
				in := core.NewInstance(patterns.LockManager(k, strat))
				var wg sync.WaitGroup
				for i := 1; i <= k; i++ {
					i := i
					table := strat.NewTable()
					wg.Add(1)
					go func() {
						defer wg.Done()
						_ = patterns.RunManager(ctx, in, ids.PID(fmt.Sprintf("M%d", i)), i, table)
					}()
				}
				owner := locktable.Owner("bench-owner")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					item := fmt.Sprintf("db/t%d", i%4)
					g, err := patterns.RequestLock(ctx, in, "C", owner, item, write)
					if err != nil {
						b.Fatal(err)
					}
					if g {
						if err := patterns.ReleaseLock(ctx, in, "C", owner, item, write); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				cancel()
				in.Close()
				wg.Wait()
			})
		}
	}
}

// BenchmarkE06CSPBroadcast measures Figure 6's broadcast on the CSP
// substrate: one full parallel command per iteration.
func BenchmarkE06CSPBroadcast(b *testing.B) {
	const n = 5
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		sys := csp.NewSystem().
			Process("transmitter", func(p *csp.Proc) error {
				sent := make([]bool, n+1)
				return p.Rep(func() []csp.Guard {
					guards := make([]csp.Guard, 0, n)
					for k := 1; k <= n; k++ {
						k := k
						guards = append(guards, csp.OnSend(csp.Name("recipient", k), "", i,
							func(any) error { sent[k] = true; return nil }).When(!sent[k]))
					}
					return guards
				})
			}).
			ProcessArray("recipient", n, func(p *csp.Proc) error {
				_, err := p.Recv("transmitter")
				return err
			})
		if err := sys.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE07CSPTranslation measures the translated broadcast (supervisor
// p_s) against BenchmarkE03StarBroadcast/N=4: the overhead of Figure 7's
// centralized coordination.
func BenchmarkE07CSPTranslation(b *testing.B) {
	const n = 4
	def := patterns.StarBroadcast(n)
	host, err := cspx.New(def)
	if err != nil {
		b.Fatal(err)
	}
	binding := map[ids.RoleRef]string{ids.Role(patterns.RoleSender): "T"}
	for i := 1; i <= n; i++ {
		binding[ids.Member(patterns.RoleRecipient, i)] = csp.Name("q", i)
	}
	rounds := b.N
	sys := csp.NewSystem().
		Process("T", func(p *csp.Proc) error {
			for r := 0; r < rounds; r++ {
				if _, err := host.Enroll(p, ids.Role(patterns.RoleSender), binding, []any{r}); err != nil {
					return err
				}
			}
			return nil
		}).
		ProcessArray("q", n, func(p *csp.Proc) error {
			for r := 0; r < rounds; r++ {
				if _, err := host.Enroll(p, ids.Member(patterns.RoleRecipient, p.Index()), binding, nil); err != nil {
					return err
				}
			}
			return nil
		})
	host.AddSupervisor(sys, rounds)
	b.ResetTimer()
	if err := sys.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE08AdaBroadcast measures Figure 8's reverse broadcast on the Ada
// substrate: one program run per iteration.
func BenchmarkE08AdaBroadcast(b *testing.B) {
	const n = 5
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		p := ada.NewProgram()
		sender := p.Task("sender", nil)
		receive := sender.Entry("receive")
		sender.SetBody(func(tk *ada.Task) error {
			for completed := 0; completed < n; completed++ {
				if err := tk.Accept(receive, func([]any) ([]any, error) {
					return []any{i}, nil
				}); err != nil {
					return err
				}
			}
			return nil
		})
		for r := 1; r <= n; r++ {
			p.Task(fmt.Sprintf("r%d", r), func(tk *ada.Task) error {
				_, err := receive.Call(tk.Context())
				return err
			})
		}
		if err := p.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE09AdaTranslation measures the Ada translation's performance
// cost (m+1 tasks, start/stop entry pairs per enrollment).
func BenchmarkE09AdaTranslation(b *testing.B) {
	const n = 4
	host, err := adax.New(patterns.StarBroadcast(n))
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := host.Start(ctx); err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	rounds := b.N
	b.ResetTimer()
	for i := 1; i <= n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := host.Enroll(ctx, ids.Member(patterns.RoleRecipient, i), nil); err != nil {
					return
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		if _, err := host.Enroll(ctx, ids.Role(patterns.RoleSender), []any{r}); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
	b.StopTimer()
	if err := host.Shutdown(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE10MonitorMailbox measures the paper's two monitor packagings on
// independent pair traffic: the shared monitor serializes, the per-mailbox
// scheme does not.
func BenchmarkE10MonitorMailbox(b *testing.B) {
	const pairs = 4
	def := core.NewScript("pair_exchange").
		Family("left", pairs, func(rc core.Ctx) error {
			for m := 0; m < 50; m++ {
				if err := rc.Send(ids.Member("right", rc.Index()), m); err != nil {
					return err
				}
			}
			return nil
		}).
		Family("right", pairs, func(rc core.Ctx) error {
			for m := 0; m < 50; m++ {
				if _, err := rc.Recv(ids.Member("left", rc.Index())); err != nil {
					return err
				}
			}
			return nil
		}).
		MustBuild()

	for _, shared := range []bool{false, true} {
		name := "monitors=per-mailbox"
		opts := []monx.Option{monx.WithCapacity(8)}
		if shared {
			name = "monitors=shared"
			opts = append(opts, monx.WithSharedMonitor())
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, err := monx.New(def, opts...)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for p := 1; p <= pairs; p++ {
					p := p
					wg.Add(2)
					go func() {
						defer wg.Done()
						_, _ = h.Enroll(ids.Member("left", p), nil)
					}()
					go func() {
						defer wg.Done()
						_, _ = h.Enroll(ids.Member("right", p), nil)
					}()
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkE11BroadcastStrategies measures the DES itself across strategy
// and size (the model behind the Section II comparison).
func BenchmarkE11BroadcastStrategies(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		p := sim.Params{Recipients: n, Items: 1, SendOverhead: 1, Latency: 5, Fanout: 2}
		b.Run(fmt.Sprintf("strategy=star/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Star(p)
			}
		})
		b.Run(fmt.Sprintf("strategy=tree/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Tree(p)
			}
		})
		b.Run(fmt.Sprintf("strategy=pipeline/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Pipeline(p)
			}
		})
	}
}

// BenchmarkE12OpenEnded measures dynamic-extent performances (Section V's
// open-ended scripts): one gather performance per iteration.
func BenchmarkE12OpenEnded(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("extent=%d", n), func(b *testing.B) {
			def := core.NewScript("gather").
				Role("hub", func(rc core.Ctx) error {
					// Open family: between rounds some workers may not have
					// re-enrolled when the performance commits; the paper's
					// Terminated predicate skips the absent ones.
					for i := 1; i <= rc.FamilySize("w"); i++ {
						m := ids.Member("w", i)
						if rc.Terminated(m) {
							continue
						}
						if _, err := rc.Recv(m); err != nil {
							return err
						}
					}
					return nil
				}).
				OpenFamily("w", func(rc core.Ctx) error {
					return rc.Send(ids.Role("hub"), rc.Index())
				}).
				CriticalSet(ids.Role("hub")).
				MustBuild()
			in := core.NewInstance(def)
			defer in.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			for i := 1; i <= n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if _, err := in.Enroll(ctx, core.Enrollment{
							PID: ids.PID(fmt.Sprintf("W%d", i)), Role: ids.Member("w", i),
						}); err != nil {
							return
						}
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Enroll(ctx, core.Enrollment{PID: "H", Role: ids.Role("hub")}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cancel()
			in.Close()
			wg.Wait()
		})
	}
}

// BenchmarkE13DistributedEnrollment measures multiway-synchronization
// rounds: centralized coordinator vs decentralized ring token.
func BenchmarkE13DistributedEnrollment(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		for _, kind := range []string{"central", "ring", "tree"} {
			b.Run(fmt.Sprintf("kind=%s/N=%d", kind, n), func(b *testing.B) {
				var s dist.Synchronizer
				switch kind {
				case "central":
					s = dist.NewCentral(n)
				case "ring":
					s = dist.NewRing(n)
				default:
					s = dist.NewTree(n)
				}
				defer s.Close()
				ctx := context.Background()
				rounds := b.N
				var wg sync.WaitGroup
				b.ResetTimer()
				for i := 2; i <= n; i++ {
					i := i
					wg.Add(1)
					go func() {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							if _, err := s.Enroll(ctx, i); err != nil {
								return
							}
						}
					}()
				}
				for r := 0; r < rounds; r++ {
					if _, err := s.Enroll(ctx, 1); err != nil {
						b.Fatal(err)
					}
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkE15ContendedEnrollment measures the scheduler's per-performance
// cost under heavy contention for one role: N concurrent enrollers
// collectively complete b.N single-role performances. This is the hot path
// the targeted-wakeup/incremental-match scheduler optimizes — under the old
// broadcast scheme every performance woke all N contenders and each re-ran
// the full match under the instance lock.
func BenchmarkE15ContendedEnrollment(b *testing.B) {
	for _, n := range []int{4, 64} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) { perfbench.Contended(b, n) })
	}
}

// BenchmarkE16PoolThroughput measures script.Pool against a single
// instance: 64 concurrent enrollers drive b.N single-role performances
// through a pool of 1 vs 4 instances. The role body blocks briefly
// (modeling an I/O-bound role): a single instance serializes the bodies by
// the successive-activations rule, while the pool overlaps one performance
// per instance (the paper's multiple-instances route to concurrency).
func BenchmarkE16PoolThroughput(b *testing.B) {
	for _, size := range []int{1, 4} {
		b.Run(fmt.Sprintf("instances=%d", size), func(b *testing.B) { perfbench.Pool(b, size) })
	}
}

// BenchmarkE14Fairness measures contended enrollment under the two
// contention policies.
func BenchmarkE14Fairness(b *testing.B) {
	for _, fairness := range []struct {
		name string
		f    match.Fairness
	}{{"fifo", match.FIFO}, {"arbitrary", match.Arbitrary}} {
		b.Run("policy="+fairness.name, func(b *testing.B) {
			def := core.NewScript("slot").
				Role("only", func(rc core.Ctx) error { return nil }).
				MustBuild()
			in := core.NewInstance(def, core.WithFairness(fairness.f, 42))
			defer in.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Three background contenders keep the role contested.
			var wg sync.WaitGroup
			for c := 0; c < 3; c++ {
				pid := ids.PID(fmt.Sprintf("bg%d", c))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if _, err := in.Enroll(ctx, core.Enrollment{PID: pid, Role: ids.Role("only")}); err != nil {
							return
						}
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Enroll(ctx, core.Enrollment{PID: "fg", Role: ids.Role("only")}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cancel()
			in.Close()
			wg.Wait()
		})
	}
}

// BenchmarkE17RemoteStarBroadcast is E03 pushed through the wire: a
// remote.Host serves the star broadcast on loopback TCP, n resident
// recipients re-enroll through a shared Enroller (one pooled connection
// per concurrent enrollment), and each iteration is one sender enrollment
// — a full broadcast performance whose every role body runs client-side,
// each communication op one request/response frame pair. Compare with E03
// at equal N for the process-boundary cost (the acceptance suite's E7 —
// not the paper index's — records the ratio at N=64 in BENCH_E7.json).
func BenchmarkE17RemoteStarBroadcast(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			perfbench.RemoteStar(b, n, remote.EnrollerConfig{})
		})
	}
}
