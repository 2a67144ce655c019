// Benchmarks: one per experiment of DESIGN.md's paper index (E01–E14), each
// timing the fixture that the corresponding table of cmd/scriptbench checks
// and cmd/figures narrates (internal/experiments/fixtures.go,
// internal/trans/equiv), plus E15–E17, engineering benchmarks that are not
// paper figures. The enrollment loops are internal/perfbench's drivers, which
// the acceptance suite (scriptbench -json) times too; its IDs are its own,
// not this index.
package script_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/experiments"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/locktable"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/perfbench"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/trans/equiv"
	"github.com/scriptabs/goscript/internal/trans/monx"
)

// BenchmarkE01SuccessivePerformances measures the cost of the successive-
// activation barrier itself: Figure 1's three-role script with empty bodies,
// one performance per iteration.
func BenchmarkE01SuccessivePerformances(b *testing.B) {
	open := make(chan struct{})
	close(open)
	perfbench.Performances(b, experiments.Figure1Script(open),
		[]core.Enrollment{{PID: "q-proc", Role: ids.Role("q")}, {PID: "r-proc", Role: ids.Role("r")}},
		func(int) core.Enrollment { return core.Enrollment{PID: "p-proc", Role: ids.Role("p")} })
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
				svc := experiments.StartLockService(context.Background(), 3, strat)
				ctx := svc.Context()
				owner := locktable.Owner("bench-owner")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					item := fmt.Sprintf("db/t%d", i%4)
					g, err := patterns.RequestLock(ctx, svc.In, "C", owner, item, write)
					if err == nil && g {
						err = patterns.ReleaseLock(ctx, svc.In, "C", owner, item, write)
					}
					if err != nil {
						b.Fatal(svc.Cause(err))
					}
				}
				b.StopTimer()
				if err := svc.Stop(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkE06CSPBroadcast measures Figure 6's broadcast on the CSP
// substrate: one full parallel command per iteration.
func BenchmarkE06CSPBroadcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CSPBroadcast(context.Background(), 5, i); err != nil {
			b.Fatal(err)
		}
	}
}

// starCast is the translation benchmarks' workload: the 4-recipient star
// broadcast, the sender transmitting the round number.
func starCast() (core.Definition, []equiv.Part) {
	return patterns.StarBroadcast(4), equiv.Broadcast(4, func(round int) any { return round })
}

// BenchmarkE07CSPTranslation measures the translated broadcast (supervisor
// p_s) against BenchmarkE03StarBroadcast/N=4: the overhead of Figure 7's
// centralized coordination.
func BenchmarkE07CSPTranslation(b *testing.B) {
	def, cast := starCast()
	if _, _, err := equiv.CSP(context.Background(), def, cast, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE08AdaBroadcast measures Figure 8's reverse broadcast on the Ada
// substrate: one program run per iteration.
func BenchmarkE08AdaBroadcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AdaBroadcast(context.Background(), 5, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE09AdaTranslation measures the Ada translation's performance
// cost (m+1 tasks, start/stop entry pairs per enrollment).
func BenchmarkE09AdaTranslation(b *testing.B) {
	def, cast := starCast()
	if _, _, err := equiv.Ada(context.Background(), def, cast, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE10MonitorMailbox measures the paper's two monitor packagings on
// independent pair traffic: the shared monitor serializes, the per-mailbox
// scheme does not. One iteration is one performance: 4 pairs × 50 messages.
func BenchmarkE10MonitorMailbox(b *testing.B) {
	def, cast := experiments.PairExchange(4, 50)
	for _, shared := range []bool{false, true} {
		name := "monitors=per-mailbox"
		opts := []monx.Option{monx.WithCapacity(8)}
		if shared {
			name = "monitors=shared"
			opts = append(opts, monx.WithSharedMonitor())
		}
		b.Run(name, func(b *testing.B) {
			if _, _, err := equiv.Monitors(context.Background(), def, cast, b.N, opts...); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE11BroadcastStrategies measures the DES itself across strategy
// and size (the model behind the Section II comparison).
func BenchmarkE11BroadcastStrategies(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		for _, strategy := range []string{"star", "tree", "pipeline"} {
			b.Run(fmt.Sprintf("strategy=%s/N=%d", strategy, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					experiments.BroadcastModel(strategy, n, 1)
				}
			})
		}
	}
}

// BenchmarkE12OpenEnded measures dynamic-extent performances (Section V's
// open-ended scripts): one gather performance per iteration. Between rounds
// some workers may not have re-enrolled when the hub's offer commits the
// performance; the hub skips the absent ones.
func BenchmarkE12OpenEnded(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("extent=%d", n), func(b *testing.B) {
			perfbench.Performances(b, experiments.Gather(), experiments.GatherWorkers(n),
				func(int) core.Enrollment { return experiments.GatherHub })
		})
	}
}

// BenchmarkE13DistributedEnrollment measures multiway-synchronization
// rounds: centralized coordinator vs decentralized ring token vs combining
// tree.
func BenchmarkE13DistributedEnrollment(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		for _, kind := range []string{"central", "ring", "tree"} {
			b.Run(fmt.Sprintf("kind=%s/N=%d", kind, n), func(b *testing.B) {
				s := experiments.NewSynchronizer(kind, n)
				defer s.Close()
				b.ResetTimer()
				if err := experiments.SyncRounds(context.Background(), s, n, b.N); err != nil {
					b.Fatal(err)
				}
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
// contention policies: three resident contenders keep the role contested.
func BenchmarkE14Fairness(b *testing.B) {
	only := ids.Role("only")
	for _, fairness := range []struct {
		name string
		f    match.Fairness
	}{{"fifo", match.FIFO}, {"arbitrary", match.Arbitrary}} {
		b.Run("policy="+fairness.name, func(b *testing.B) {
			perfbench.Performances(b, experiments.SlotScript(nil),
				perfbench.Cast(3, "bg", func(int) ids.RoleRef { return only }),
				func(int) core.Enrollment { return core.Enrollment{PID: "fg", Role: only} },
				core.WithFairness(fairness.f, 42))
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
