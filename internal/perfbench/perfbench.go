// Package perfbench defines the performance acceptance suite: the
// measurements whose comparison is two (or more) arms run in one process
// and that no other surface takes. cmd/scriptbench -json runs them and
// writes one BENCH_<ID>.json each; CI gates on the same-run ratios and
// counts inside those files.
//
// Where each kind of number comes from:
//
//	end-to-end cost     benchmark/ (throughput, latency, CPU, RSS and the
//	                    per-layer counters, e.g. local_star and
//	                    wire.codec_roundtrip_v{1,2}_ns)
//	same-run ratios     this package, via scriptbench -json -only <ID>
//	paper figures       bench_test.go BenchmarkE01–E14 and
//	                    internal/experiments (EXPERIMENTS.md)
//
// The IDs below are acceptance-suite IDs, not the paper index of DESIGN.md:
// this E7 is the remote star broadcast, the paper index's E7 (Figure 7, the
// CSP translation) is BenchmarkE07CSPTranslation. E1–E3 and E9 are retired:
// they re-measured what benchmark/ and bench_test.go already report, and
// their only comparison was against a file from another session.
//
//	E4  script.Pool of 4 instances vs a single instance, 64 enrollers
//	E5  fabric point-to-point ping-pong: fast lane vs forced slow lane
//	E6  fabric star scatter to 64 recipients vs a loop of serial sends
//	E7  remote star broadcast over loopback TCP: SCRW v2 (multiplexed,
//	    binary codec) vs the v1 JSON lock-step transport and vs the v2
//	    codec without multiplexing, with the same broadcast in process as
//	    the absolute floor (remote_over_in_process_ratio)
//	E8  goodput under saturation: 1×/2×/4× the host's admission cap,
//	    with vs. without client retry, per wire protocol version
//	E10 observability overhead: the in-process star broadcast and the
//	    contended-enrollment workload with 0.1% probability-sampled
//	    tracing (async ring sink) vs untraced; a delta_pct near zero is
//	    the "sampling is free when off-path" claim
//	E11 fleet goodput scaling: the E8 saturation drive against 1, 2, and
//	    4 registry-announced hosts through one registry-backed balanced
//	    enroller; aggregate goodput must scale with the fleet
//	E12 goodput under connection churn: single-role enrollments while a
//	    deterministic schedule severs the live connection mid-op, with a
//	    resume window vs with resumption off; the on-arm must complete
//	    every enrollment, the off-arm reproduces the abort taxonomy
//
// Every baseline_ns_per_op, delta_pct, speedup, ratio and arm array in a
// Result is computed inside the one Spec.Run that produced it. E4–E7 and
// E10 run their arms under testing.Benchmark, so iteration counts are chosen
// the way `go test -bench` chooses them; E8, E11 and E12 drive fixed-duration
// load points instead (see drive) and report completed-enrollment throughput
// per point.
//
// The enrollment loops those arms time are the exported drivers below
// (Broadcast, Contended, Pool, RemoteStar). They take a *testing.B so that
// bench_test.go's E02–E04 and E15–E17 run the same code under `go test
// -bench` instead of carrying a copy. The loop under Broadcast and
// RemoteStar — a resident cast plus foreground enrollments — is Residents,
// which every other benchmark of that shape (E01, E05, E12, E14, the
// ablations) and internal/experiments' fixtures drive too.
package perfbench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	script "github.com/scriptabs/goscript"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/rendezvous"
	"github.com/scriptabs/goscript/internal/trace"
)

// Result is one measurement, serialized to BENCH_<ID>.json.
type Result struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Enrollers   int     `json:"enrollers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// E4 only: the single-instance run the pool is compared against.
	SingleNsPerOp float64 `json:"single_instance_ns_per_op,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"`

	// The experiment's own comparison arm, run in the same Spec.Run, and the
	// improvement of ns_per_op over it in percent (positive = faster): the
	// forced slow lane (E5), serial sends (E6), the v1 wire (E7, E8),
	// untraced (E10), one host (E11), resumption off (E12).
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	DeltaPct        float64 `json:"delta_pct,omitempty"`

	// E7 only: the protocol-comparison runs. V2LockstepNsPerOp is the v2
	// codec with multiplexing off (MaxStreamsPerConn: 1, one dedicated
	// conn per enrollment), isolating what pipelined multiplexing buys
	// over the codec alone. InProcessNsPerOp is the identical broadcast
	// without the wire, and RemoteRatio = ns_per_op / in-process — the
	// explicit "cost of the remote boundary" multiplier.
	V1NsPerOp         float64 `json:"v1_ns_per_op,omitempty"`
	V2LockstepNsPerOp float64 `json:"v2_lockstep_ns_per_op,omitempty"`
	InProcessNsPerOp  float64 `json:"in_process_ns_per_op,omitempty"`
	RemoteRatio       float64 `json:"remote_over_in_process_ratio,omitempty"`

	// E8 only: one entry per offered-load point. The headline ns_per_op is
	// the v2 4×-cap-with-retry point's per-completed-enrollment cost.
	Saturation []SaturationPoint `json:"saturation,omitempty"`

	// E10 only: each workload measured untraced and with 0.1% sampled
	// tracing. The headline ns_per_op is the sampled star-broadcast run,
	// the baseline the untraced one, so delta_pct ≈ 0 means the sampling
	// fast path is unmeasurable.
	Sampling []SamplingPoint `json:"sampling,omitempty"`

	// E11 only: one entry per fleet size. The headline ns_per_op is the
	// largest fleet's per-completion cost; scaling_vs_single on each point
	// is its aggregate goodput over the single-host point's.
	Fleet []FleetPoint `json:"fleet,omitempty"`

	// E12 only: the identical connection-churn drive run with session
	// resumption on and off. The headline ns_per_op is the resumption-on
	// arm's per-completion cost; the baseline is the resumption-off arm.
	Churn []ChurnPoint `json:"churn,omitempty"`
}

// SaturationPoint is one E8 load point: LoadFactor × the host's admission
// cap of concurrent remote enrollers hammering a capped single-role script,
// with or without the client retry policy. Attempted counts application-level
// operations; without retry a shed attempt fails outright (Failed, lost
// goodput), with retry sheds are absorbed by backoff and every attempt
// completes. Shed is the host-side ErrOverloaded rejection count (with retry
// on, one attempt may bounce several times). Throughput and p99 latency
// cover completed attempts only.
type SaturationPoint struct {
	Protocol     int     `json:"protocol"`
	LoadFactor   int     `json:"load_factor"`
	Retry        bool    `json:"retry"`
	Attempted    uint64  `json:"attempted"`
	Completed    uint64  `json:"completed"`
	Failed       uint64  `json:"failed"`
	Shed         uint64  `json:"shed"`
	Throughput   float64 `json:"throughput_per_sec"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
}

// FleetPoint is one E11 fleet size: a fixed client population drives
// sleep-bound single-role enrollments through a registry-backed enroller at
// N capped hosts. Goodput is slot-capacity-bound (each host admits fleetCap
// concurrent enrollments of a fixed service time), so aggregate throughput
// must scale with the fleet and ScalingVsSingle is the headline claim.
// MinHostShare is the least-used host's fraction of completions — 1/N is
// perfectly even, near 0 means the balancer hot-spotted.
type FleetPoint struct {
	Hosts           int     `json:"hosts"`
	Clients         int     `json:"clients"`
	Attempted       uint64  `json:"attempted"`
	Completed       uint64  `json:"completed"`
	Failed          uint64  `json:"failed"`
	Shed            uint64  `json:"shed"`
	Throughput      float64 `json:"throughput_per_sec"`
	ScalingVsSingle float64 `json:"scaling_vs_single,omitempty"`
	MinHostShare    float64 `json:"min_host_share"`
}

// ChurnPoint is one E12 arm: churnClients concurrent remote enrollers drive
// single-role enrollments whose bodies each issue churnOpsPerBody wire ops,
// while a deterministic fault schedule severs the live connection on every
// churnCutEvery-th client op — the same schedule for both arms. With a
// resume window open every cut heals invisibly (Failed must be 0); with
// resumption off each cut kills the multiplexed connection and every
// enrollment riding it, so Failed must be > 0. Throughput and p99 latency
// cover completed enrollments only; FailureRatePct = Failed/Attempted.
type ChurnPoint struct {
	Resume         bool    `json:"resume"`
	Attempted      uint64  `json:"attempted"`
	Completed      uint64  `json:"completed"`
	Failed         uint64  `json:"failed"`
	Cuts           uint64  `json:"cuts"`
	Resumed        uint64  `json:"sessions_resumed"`
	Throughput     float64 `json:"throughput_per_sec"`
	FailureRatePct float64 `json:"failure_rate_pct"`
	P99LatencyMS   float64 `json:"p99_latency_ms"`
}

// SamplingPoint is one E10 cell: a core workload run untraced or with a
// 0.1% probability sampler feeding an async-ring tracer.
type SamplingPoint struct {
	Workload    string  `json:"workload"`
	Sampled     bool    `json:"sampled"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Spec names one measurement of the suite.
type Spec struct {
	ID          string
	Name        string
	Description string
	Enrollers   int
	Run         func() Result
}

// Suite returns the acceptance measurements in ID order.
func Suite() []Spec {
	specs := []Spec{
		{
			ID:          "E4",
			Name:        "pool-throughput-4x",
			Description: "64 enrollers drive blocking single-role performances through a Pool of 4 vs 1 instance",
			Enrollers:   64,
		},
		{
			ID:          "E5",
			Name:        "fabric-pingpong-fast-vs-slow",
			Description: "8 concurrent fabric ping-pong pairs; baseline is the same workload with the fast lane forced off (GOMAXPROCS>=4)",
			Enrollers:   16,
		},
		{
			ID:          "E6",
			Name:        "fabric-scatter-64",
			Description: "one 64-recipient fabric Scatter per op; baseline is a loop of 64 serial sends (GOMAXPROCS>=4)",
			Enrollers:   64,
		},
		{
			ID:          "E7",
			Name:        "remote-star-broadcast-64",
			Description: "one StarBroadcast(64) performance per op with every role enrolled over loopback TCP (SCRW v2, multiplexed); baseline is the same workload over the v1 JSON lock-step transport; remote_over_in_process_ratio compares against the same broadcast in process",
			Enrollers:   65,
		},
		{
			ID:          "E8",
			Name:        "goodput-under-saturation",
			Description: "remote single-role enrollments at 1x/2x/4x the host's admission cap, with vs. without client retry, per wire protocol; per-point completed throughput and p99 latency",
			Enrollers:   4 * saturationCap,
		},
		{
			ID:          "E10",
			Name:        "sampling-overhead",
			Description: "star broadcast 64 and contended enrollment 64, in process, with 0.1% probability-sampled tracing vs untraced; headline is the sampled star-broadcast run, baseline the untraced one",
			Enrollers:   64,
		},
		{
			ID:          "E11",
			Name:        "fleet-goodput-scaling",
			Description: "the E8 saturation drive against 1/2/4 registry-announced hosts (admission cap 4 each, sleep-bound bodies) through a registry-backed round-robin enroller; per-point aggregate goodput and scaling vs the single-host point",
			Enrollers:   fleetClients,
		},
		{
			ID:          "E12",
			Name:        "goodput-under-connection-churn",
			Description: "remote single-role enrollments under a deterministic schedule of mid-op connection cuts (one per 64 client wire ops), with a 5s resume window vs with resumption off; per-arm goodput and enrollment failure rate, identical cut schedule in both arms",
			Enrollers:   churnClients,
		},
	}
	specs[0].Run = func() Result {
		res := finish(specs[0], benchPool(4))
		res.SingleNsPerOp = nsPerOp(benchPool(1))
		if res.NsPerOp > 0 {
			res.Speedup = res.SingleNsPerOp / res.NsPerOp
		}
		return res
	}
	specs[1].Run = func() Result {
		var fast, slow testing.BenchmarkResult
		withMinProcs(4, func() {
			fast = runPingPong(8, false)
			slow = runPingPong(8, true)
		})
		return withBaseline(finish(specs[1], fast), slow)
	}
	specs[2].Run = func() Result {
		var scatter, serial testing.BenchmarkResult
		withMinProcs(4, func() {
			scatter = runScatter(64, false)
			serial = runScatter(64, true)
		})
		return withBaseline(finish(specs[2], scatter), serial)
	}
	specs[3].Run = func() Result {
		v2 := benchRemoteStar(remote.EnrollerConfig{})
		v1 := benchRemoteStar(remote.EnrollerConfig{MaxProtocolVersion: 1})
		lockstep := benchRemoteStar(remote.EnrollerConfig{MaxStreamsPerConn: 1})
		res := withBaseline(finish(specs[3], v2), v1)
		res.V1NsPerOp = nsPerOp(v1)
		res.V2LockstepNsPerOp = nsPerOp(lockstep)
		res.InProcessNsPerOp = nsPerOp(benchStar())
		if res.InProcessNsPerOp > 0 {
			res.RemoteRatio = res.NsPerOp / res.InProcessNsPerOp
		}
		return res
	}
	specs[4].Run = func() Result { return runSaturationSuite(specs[4]) }
	specs[5].Run = func() Result { return runSamplingSuite(specs[5]) }
	specs[6].Run = func() Result { return runFleetSuite(specs[6]) }
	specs[7].Run = func() Result { return runChurnSuite(specs[7]) }
	return specs
}

// header is the part of a Result that restates its Spec.
func header(s Spec) Result {
	return Result{ID: s.ID, Name: s.Name, Description: s.Description, Enrollers: s.Enrollers}
}

func finish(s Spec, br testing.BenchmarkResult) Result {
	res := header(s)
	res.Iterations = br.N
	res.NsPerOp = nsPerOp(br)
	res.AllocsPerOp = br.AllocsPerOp()
	return res
}

// withBaseline records the experiment's comparison arm (the forced-slow
// lane, the serial-send loop, the v1 wire, the untraced run) as the baseline.
func withBaseline(res Result, base testing.BenchmarkResult) Result {
	return withBaselineNs(res, nsPerOp(base))
}

// withBaselineNs is withBaseline for arms measured as a throughput. An arm
// that completed nothing has no per-op cost: the baseline fields stay zero
// (and out of the JSON) rather than becoming ±Inf, which does not marshal.
func withBaselineNs(res Result, baseNs float64) Result {
	if baseNs > 0 {
		res.BaselineNsPerOp = baseNs
		res.DeltaPct = (baseNs - res.NsPerOp) / baseNs * 100
	}
	return res
}

// nsPerCompletion converts a drive's completed-enrollment throughput to a
// per-completion cost; 0 when nothing completed.
func nsPerCompletion(throughput float64) float64 {
	if throughput <= 0 {
		return 0
	}
	return 1e9 / throughput
}

// withMinProcs runs fn with GOMAXPROCS raised to at least n (never lowered):
// the fabric's lane comparison is about lock contention, which a
// single-scheduler-thread run cannot exhibit.
func withMinProcs(n int, fn func()) {
	old := runtime.GOMAXPROCS(0)
	if old < n {
		runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
	}
	fn()
}

func nsPerOp(br testing.BenchmarkResult) float64 {
	if br.N <= 0 {
		return 0
	}
	return float64(br.T.Nanoseconds()) / float64(br.N)
}

// The suite's fixed-size arms of the exported drivers.
func benchStar(opts ...core.Option) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) { Broadcast(b, patterns.StarBroadcast(64), 64, opts...) })
}

func benchContended(opts ...core.Option) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) { Contended(b, 64, opts...) })
}

func benchPool(size int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) { Pool(b, size) })
}

func benchRemoteStar(cfg remote.EnrollerConfig) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) { RemoteStar(b, 64, cfg) })
}

// EnrollFunc is the shape of Instance.Enroll and Enroller.Enroll.
type EnrollFunc = func(context.Context, core.Enrollment) (core.Result, error)

// Residents keeps a cast resident in a script: each of its enrollments is
// offered again, from a goroutine of its own, the moment the last one
// returns, so that the caller's foreground enrollments always find their
// partners waiting. It is the "k resident enrollers plus one foreground
// loop" of BenchmarkE01–E05, E12, E14, E17 and the ablations, of Figure 5's
// managers, and of the experiment tables that drive the same fixtures.
//
// A resident whose enrollment fails ends them all, and the foreground with
// them: a refused worker must fail the run, not leave the foreground
// waiting for a partner that will never come (or, worse, finishing fast
// without it).
type Residents struct {
	enroll EnrollFunc
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup
}

// Keep starts the residents: one goroutine per enrollment of cast, each
// re-enrolling through enroll until Stop, ctx's end or a failure.
func Keep(ctx context.Context, enroll EnrollFunc, cast []core.Enrollment) *Residents {
	r := &Residents{enroll: enroll}
	r.ctx, r.cancel = context.WithCancelCause(ctx)
	for _, e := range cast {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				if _, err := enroll(r.ctx, e); err != nil {
					// Recorded only if it is what ends the residents: after
					// Stop or ctx's end the cause is already set.
					r.cancel(fmt.Errorf("resident %s as %s: %w", e.PID, e.Role, err))
					return
				}
			}
		}()
	}
	return r
}

// Context ends when the residents do; foreground work that does not go
// through Enroll (a lock request) runs under it.
func (r *Residents) Context() context.Context { return r.ctx }

// Cause names why a foreground call failed: err itself, unless the residents
// have ended, in which case it is what ended them.
func (r *Residents) Cause(err error) error {
	if err != nil && r.ctx.Err() != nil {
		return context.Cause(r.ctx)
	}
	return err
}

// Enroll is one foreground enrollment among the residents.
func (r *Residents) Enroll(e core.Enrollment) (core.Result, error) {
	res, err := r.enroll(r.ctx, e)
	return res, r.Cause(err)
}

// Stop ends the residents, waits for them, and returns the failure that
// ended them early, if one did.
func (r *Residents) Stop() error {
	r.cancel(nil)
	r.wg.Wait()
	if err := context.Cause(r.ctx); !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// Cast is n enrollments, numbered from 1: process <pid>i enrolls as role(i).
func Cast(n int, pid string, role func(i int) ids.RoleRef) []core.Enrollment {
	cast := make([]core.Enrollment, n)
	for i := range cast {
		cast[i] = core.Enrollment{PID: ids.PID(fmt.Sprintf("%s%d", pid, i+1)), Role: role(i + 1)}
	}
	return cast
}

// Recipient is role(i) of a broadcast's recipients.
func Recipient(i int) ids.RoleRef { return ids.Member(patterns.RoleRecipient, i) }

// Rounds times b.N foreground enrollments, fg(0) … fg(b.N-1), among a
// resident cast: with the cast resident, each foreground enrollment is one
// complete performance.
func Rounds(b *testing.B, enroll EnrollFunc, cast []core.Enrollment, fg func(i int) core.Enrollment) {
	r := Keep(context.Background(), enroll, cast)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Enroll(fg(i)); err != nil {
			b.StopTimer()
			r.Stop()
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := r.Stop(); err != nil {
		b.Fatal(err)
	}
}

// Performances is Rounds on a fresh instance of def.
func Performances(b *testing.B, def core.Definition, cast []core.Enrollment, fg func(i int) core.Enrollment, opts ...core.Option) {
	in := core.NewInstance(def, opts...)
	defer in.Close()
	Rounds(b, in.Enroll, cast, fg)
}

// Broadcast times b.N performances of a broadcast definition (patterns'
// star or pipeline, whose recipient[1..n] bodies are the script's own): the
// n recipients are resident, and the measured op is one sender enrollment.
func Broadcast(b *testing.B, def core.Definition, n int, opts ...core.Option) {
	Performances(b, def, Cast(n, "R", Recipient), func(i int) core.Enrollment {
		return core.Enrollment{PID: "T", Role: ids.Role(patterns.RoleSender), Args: []any{i}}
	}, opts...)
}

// shareOps has `workers` goroutines collectively complete b.N calls of op,
// so ns/op is the per-call cost under that much contention. (Timing one
// foreground caller instead would conflate the cost with the FIFO queue
// depth at enrollment time, which varies run to run.)
func shareOps(b *testing.B, workers int, op func(pid ids.PID) error) {
	var next, failures atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		pid := ids.PID(fmt.Sprintf("W%d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := op(pid); err != nil {
					failures.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if failures.Load() > 0 {
		b.Fatalf("%d enrollments failed", failures.Load())
	}
}

// SlotScript is the single-role script: one role, "only", that every
// contender wants (nil body: an empty one). E14, E15, E16 and the drive
// experiments' host enroll into it.
func SlotScript(body core.RoleBody) core.Definition {
	if body == nil {
		body = func(core.Ctx) error { return nil }
	}
	return core.NewScript("slot").Role("only", body).MustBuild()
}

// Contended times the scheduler's per-performance cost under contention for
// one role: n concurrent enrollers share b.N single-role performances with
// empty bodies.
func Contended(b *testing.B, n int, opts ...core.Option) {
	in := core.NewInstance(SlotScript(nil), opts...)
	defer in.Close()
	shareOps(b, n, func(pid ids.PID) error {
		_, err := in.Enroll(context.Background(), core.Enrollment{PID: pid, Role: ids.Role("only")})
		return err
	})
}

// Pool times script.Pool at a given size: 64 enrollers share b.N
// single-role performances whose body blocks briefly (an I/O-bound role). One
// instance serializes the bodies by the successive-activations rule; a pool
// overlaps one performance per instance.
func Pool(b *testing.B, size int) {
	pool := script.NewPool(SlotScript(func(core.Ctx) error {
		time.Sleep(20 * time.Microsecond)
		return nil
	}), size)
	defer pool.Close()
	shareOps(b, 64, func(pid script.PID) error {
		_, err := pool.Enroll(context.Background(), script.Enrollment{PID: pid, Role: script.Role("only")})
		return err
	})
}

// RemoteStar is Broadcast pushed through the wire. A remote.Host serves
// StarBroadcast(n) on loopback; n resident recipients re-enroll forever
// through one shared Enroller, and the measured op is one sender enrollment
// — a complete broadcast performance in which every role body runs
// client-side, each communication op a request/response frame pair. cfg
// selects the transport under test: the zero value (v2, multiplexed),
// MaxProtocolVersion: 1 (the JSON lock-step wire), or MaxStreamsPerConn: 1
// (v2 codec, dedicated conn per enrollment).
func RemoteStar(b *testing.B, n int, cfg remote.EnrollerConfig) {
	cfg.Script = "star_broadcast"
	in := core.NewInstance(patterns.StarBroadcast(n))
	defer in.Close()
	h := remote.NewHost(in, remote.HostConfig{})
	if err := h.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	go h.Serve()
	enr := remote.NewEnroller(h.Addr().String(), cfg)
	defer enr.Close()
	recipients := Cast(n, "R", Recipient)
	tos := make([]ids.RoleRef, n)
	for i := range recipients {
		tos[i] = recipients[i].Role
		recipients[i].Body = func(rc core.Ctx) error {
			v, err := rc.Recv(ids.Role(patterns.RoleSender))
			if err != nil {
				return err
			}
			rc.SetResult(0, v)
			return nil
		}
	}
	Rounds(b, enr.Enroll, recipients, func(i int) core.Enrollment {
		return core.Enrollment{
			PID: "T", Role: ids.Role(patterns.RoleSender),
			Body: func(rc core.Ctx) error { return rc.SendAll(tos, i) },
		}
	})
}

// driveStats is what one fixed-window drive observed. Throughput and p99
// cover completed attempts only.
type driveStats struct {
	Attempted, Completed, Failed uint64
	Throughput                   float64 // completions per second of window
	P99LatencyMS                 float64
}

// drive is the fixed-window load loop of E8, E11 and E12: `clients`
// goroutines each call enroll back to back until window has elapsed, so a
// drive returns within the window plus one op. A failed attempt is lost
// goodput, not retried here (retry, where the experiment wants it, is the
// enroller's policy).
func drive(clients int, window time.Duration, enroll func(pid ids.PID) error) driveStats {
	samples := make([][]time.Duration, clients)
	failed := make([]uint64, clients)
	stop := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		pid := ids.PID(fmt.Sprintf("C%d", c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				t0 := time.Now()
				if err := enroll(pid); err != nil {
					failed[c]++
					continue
				}
				samples[c] = append(samples[c], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	var st driveStats
	var all []time.Duration
	for c := range samples {
		all = append(all, samples[c]...)
		st.Failed += failed[c]
	}
	st.Completed = uint64(len(all))
	st.Attempted = st.Completed + st.Failed
	st.Throughput = float64(st.Completed) / window.Seconds()
	st.P99LatencyMS = float64(p99(all).Nanoseconds()) / 1e6
	return st
}

// p99 is the sample at rank ⌊0.99·n⌋ of the sorted set (sorted in place); 0
// for an empty set.
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)*99/100]
}

// slotHost is a loopback remote.Host serving the single-role "slot" script
// the drive experiments enroll into. The role's body always comes from the
// client, so the definition's own must never run.
type slotHost struct {
	in *core.Instance
	h  *remote.Host
}

func startSlotHost(cfg remote.HostConfig) slotHost {
	in := core.NewInstance(SlotScript(func(core.Ctx) error { return fmt.Errorf("local body must not run") }))
	h := remote.NewHost(in, cfg)
	if err := h.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	go h.Serve()
	return slotHost{in: in, h: h}
}

func (s slotHost) close() {
	s.h.Close()
	s.in.Close()
}

// cappedHost is the slot host with an admission cap, as E8 and E11 load it.
func cappedHost(cap int) slotHost {
	return startSlotHost(remote.HostConfig{MaxEnrollments: cap, RetryAfter: 2 * time.Millisecond})
}

// enrollSlot adapts enr to drive: one enrollment of the slot role running
// body client-side.
func enrollSlot(enr *remote.Enroller, body core.RoleBody) func(ids.PID) error {
	return func(pid ids.PID) error {
		_, err := enr.Enroll(context.Background(), core.Enrollment{PID: pid, Role: ids.Role("only"), Body: body})
		return err
	}
}

// shedRetry is the client retry policy of the saturated drives: sheds are
// retried under a short backoff until admitted.
var shedRetry = remote.RetryPolicy{
	MaxAttempts: 100,
	BaseBackoff: time.Millisecond,
	MaxBackoff:  8 * time.Millisecond,
	Seed:        42,
}

// saturationCap is E8's host admission cap (MaxEnrollments); offered load
// is expressed as multiples of it.
const saturationCap = 4

// saturationWindow is how long each E8 load point runs.
const saturationWindow = 400 * time.Millisecond

// runSaturationSuite is E8: a capped remote host is offered 1×, 2×, and 4×
// its admission cap of concurrent single-role enrollments, once with the
// client retry policy off (over-cap offers bounce with ErrOverloaded and
// are lost goodput) and once with it on (sheds are retried under backoff
// until admitted). The whole grid runs once per wire protocol so overload
// behavior is comparable across v1 and v2. Each point reports completed-
// enrollment throughput and the p99 latency of completions; the headline
// ns_per_op is the v2 4×-with-retry point's per-completion cost.
func runSaturationSuite(s Spec) Result {
	res := header(s)
	for _, proto := range []int{1, 2} {
		for _, factor := range []int{1, 2, 4} {
			for _, retry := range []bool{false, true} {
				res.Saturation = append(res.Saturation, runSaturationPoint(proto, factor, retry))
			}
		}
	}
	headline := res.Saturation[len(res.Saturation)-1] // v2, 4× with retry
	res.Iterations = int(headline.Completed)
	res.NsPerOp = nsPerCompletion(headline.Throughput)
	// The v1 grid's matching point, for the headline's protocol delta.
	for _, p := range res.Saturation {
		if p.Protocol == 1 && p.LoadFactor == headline.LoadFactor && p.Retry == headline.Retry {
			res.V1NsPerOp = nsPerCompletion(p.Throughput)
			res = withBaselineNs(res, res.V1NsPerOp)
		}
	}
	return res
}

func runSaturationPoint(proto, factor int, retry bool) SaturationPoint {
	host := cappedHost(saturationCap)
	cfg := remote.EnrollerConfig{
		// The breaker would turn sustained overload into client-local
		// fail-fast rejections; E8 measures the host's shedding, so it is
		// disabled for both modes.
		Breaker:            remote.BreakerConfig{FailureThreshold: -1},
		MaxProtocolVersion: proto,
	}
	if retry {
		cfg.Retry = shedRetry
	}
	enr := remote.NewEnroller(host.h.Addr().String(), cfg)

	// The body spins (not sleeps) ~200µs so each admitted enrollment holds
	// its slot for a consistent service time — time.Sleep's wakeup latency
	// varies with how busy the process is, which would let the shed traffic
	// itself distort per-point service times.
	st := drive(saturationCap*factor, saturationWindow, enrollSlot(enr, func(rc core.Ctx) error {
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
		return nil
	}))
	shed := host.h.Stats().ShedEnrollments
	enr.Close()
	host.close()
	return SaturationPoint{
		Protocol:     proto,
		LoadFactor:   factor,
		Retry:        retry,
		Attempted:    st.Attempted,
		Completed:    st.Completed,
		Failed:       st.Failed,
		Shed:         shed,
		Throughput:   st.Throughput,
		P99LatencyMS: st.P99LatencyMS,
	}
}

// fleetCap is E11's per-host admission cap: small enough that goodput is
// bound by slot capacity, not CPU, so adding hosts adds capacity even on a
// single-core machine.
const fleetCap = 4

// fleetServiceTime is how long each admitted E11 enrollment holds its slot.
// Sleeping (not spinning) keeps N×fleetCap concurrent bodies from competing
// for cycles — the point is slot scaling, not scheduler throughput.
const fleetServiceTime = 3 * time.Millisecond

// fleetWindow is how long each E11 fleet point runs.
const fleetWindow = 600 * time.Millisecond

// fleetClients is the client population offered to every fleet size — held
// constant so the only variable across points is capacity.
const fleetClients = 64

// runFleetSuite is E11: the E8 saturation drive pointed at a fleet. Each
// point announces N capped hosts to a registry with live load digests and
// drives them through one registry-backed round-robin enroller shared by
// fleetClients retrying clients. Aggregate completed-enrollment throughput
// per point, plus its ratio over the single-host point — the scale-out
// claim the CI gate asserts (≥2.5× at 4 hosts).
func runFleetSuite(s Spec) Result {
	var points []FleetPoint
	for _, hosts := range []int{1, 2, 4} {
		points = append(points, runFleetPoint(hosts))
	}
	return fleetResult(s, points)
}

// fleetResult computes E11's headline from its points (single host first,
// largest fleet last). A single-host point that completed nothing leaves
// scaling_vs_single and the baseline fields zero, so the result still
// marshals and CI's gate reports the missing scaling rather than an
// encoding error.
func fleetResult(s Spec, points []FleetPoint) Result {
	res := header(s)
	res.Fleet = points
	single := points[0].Throughput
	for i := range points {
		if single > 0 {
			points[i].ScalingVsSingle = points[i].Throughput / single
		}
	}
	headline := points[len(points)-1]
	res.Iterations = int(headline.Completed)
	res.NsPerOp = nsPerCompletion(headline.Throughput)
	return withBaselineNs(res, nsPerCompletion(single))
}

func runFleetPoint(nHosts int) FleetPoint {
	reg := registry.NewStatic()
	members := make([]slotHost, nHosts)
	for i := range members {
		m := cappedHost(fleetCap)
		reg.Announce(
			registry.Endpoint{Addr: m.h.Addr().String(), Scripts: []string{"slot"}},
			func() registry.Load {
				st := m.h.Stats()
				return registry.Load{
					Conns:         st.Conns,
					Enrolling:     st.Enrolling,
					PendingOffers: m.in.PendingOffers(),
				}
			})
		members[i] = m
	}
	enr := remote.NewEnrollerRegistry(reg, remote.EnrollerConfig{
		Script: "slot",
		// Round-robin spreads blind but evenly; the 25ms-refresh load
		// digests would herd a least-loaded pick under this many clients.
		Balancer: remote.NewRoundRobin(),
		// Sustained saturation is the workload, not a fault: the breaker
		// must not turn expected sheds into client-local rejections.
		Breaker: remote.BreakerConfig{FailureThreshold: -1},
		Retry:   shedRetry,
	})

	st := drive(fleetClients, fleetWindow, enrollSlot(enr, func(rc core.Ctx) error {
		time.Sleep(fleetServiceTime)
		return nil
	}))

	var shed uint64
	minShare := 1.0
	for _, m := range members {
		shed += uint64(m.h.Stats().ShedEnrollments)
		if st.Completed > 0 {
			minShare = min(minShare, float64(m.in.Performances())/float64(st.Completed))
		}
	}
	enr.Close()
	reg.Close()
	for _, m := range members {
		m.close()
	}
	return FleetPoint{
		Hosts:        nHosts,
		Clients:      fleetClients,
		Attempted:    st.Attempted,
		Completed:    st.Completed,
		Failed:       st.Failed,
		Shed:         shed,
		Throughput:   st.Throughput,
		MinHostShare: minShare,
	}
}

// churnClients is E12's concurrent enroller population.
const churnClients = 8

// churnWindow is how long each E12 arm runs.
const churnWindow = 400 * time.Millisecond

// churnCutEvery severs the live connection on every Nth client wire op —
// a deterministic schedule, identical for both arms, unlike the seeded
// probabilistic chaos injector the soak tests use.
const churnCutEvery = 64

// churnOpsPerBody is how many wire ops each enrollment body issues; each
// op is one consult of the cut schedule and, on the resumption-on arm,
// one op the healed session must still answer correctly.
const churnOpsPerBody = 4

// churnFaults is a deterministic remote.NetFaults: no delays, stalls, or
// overloads — only a connection cut on every churnCutEvery-th client op.
type churnFaults struct {
	ops  atomic.Uint64
	cuts atomic.Uint64
}

func (f *churnFaults) FrameDelay() time.Duration     { return 0 }
func (f *churnFaults) DropConn() bool                { return false }
func (f *churnFaults) StallHeartbeat() time.Duration { return 0 }
func (f *churnFaults) Overload() bool                { return false }
func (f *churnFaults) CutConn() bool {
	if f.ops.Add(1)%churnCutEvery == 0 {
		f.cuts.Add(1)
		return true
	}
	return false
}

// runChurnSuite is E12: the same fixed-duration churn drive run twice —
// once with the host parking broken conversations for a 5s resume window,
// once with resumption disabled — under an identical deterministic cut
// schedule. The resumption-on arm's contract is zero failed enrollments
// (every blip heals invisibly, mid-flight ops included); the off arm must
// fail enrollments (each cut kills the multiplexed connection and all
// work riding it), which is exactly today's abort taxonomy and the
// counterfactual that proves the cuts are real. The headline ns_per_op is
// the on-arm per-completion cost, the baseline the off arm's, so
// delta_pct is what resumption costs (or buys back) in goodput under
// churn.
func runChurnSuite(s Spec) Result {
	res := header(s)
	on := runChurnPoint(true)
	off := runChurnPoint(false)
	res.Churn = []ChurnPoint{on, off}
	res.Iterations = int(on.Completed)
	res.NsPerOp = nsPerCompletion(on.Throughput)
	return withBaselineNs(res, nsPerCompletion(off.Throughput))
}

func runChurnPoint(resume bool) ChurnPoint {
	hcfg := remote.HostConfig{}
	if resume {
		hcfg.ResumeWindow = 5 * time.Second
	}
	host := startSlotHost(hcfg)
	faults := &churnFaults{}
	enr := remote.NewEnroller(host.h.Addr().String(), remote.EnrollerConfig{
		// Cuts are consulted at the client's op entry, so the enroller
		// carries the schedule. No retry policy and no breaker: a failed
		// enrollment is lost goodput in both arms, and the off arm's
		// conn-lost bursts must not trip client-local fail-fasts that
		// would distort the comparison.
		Faults:  faults,
		Breaker: remote.BreakerConfig{FailureThreshold: -1},
	})

	resumedBefore := metrics.Get(metrics.SessionsResumed).Load()
	// Each body op is a query over the wire — a cut consult point on the
	// way out and, when the cut fires, an in-flight op the resumed session
	// must complete exactly once.
	st := drive(churnClients, churnWindow, enrollSlot(enr, func(rc core.Ctx) error {
		for i := 0; i < churnOpsPerBody; i++ {
			rc.Filled(ids.Role("only"))
		}
		return nil
	}))
	enr.Close()
	host.close()

	pt := ChurnPoint{
		Resume:       resume,
		Attempted:    st.Attempted,
		Completed:    st.Completed,
		Failed:       st.Failed,
		Cuts:         faults.cuts.Load(),
		Resumed:      metrics.Get(metrics.SessionsResumed).Load() - resumedBefore,
		Throughput:   st.Throughput,
		P99LatencyMS: st.P99LatencyMS,
	}
	if pt.Attempted > 0 {
		pt.FailureRatePct = float64(pt.Failed) / float64(pt.Attempted) * 100
	}
	return pt
}

// samplingRate is E10's sampled fraction: production-shaped, low enough
// that nearly every op takes the sampler's rejection fast path.
const samplingRate = 0.001

// samplingRounds is how many interleaved (untraced, sampled) pairs E10
// measures per workload; each cell reports its fastest round. The workloads
// are scheduler-bound and their run-to-run spread is wider than the effect
// under test, so a single pair would gate CI on noise — the minimum is the
// run least disturbed by the machine, for both configurations alike.
const samplingRounds = 7

// runSamplingSuite is E10: the in-process star-broadcast (Broadcast, 64
// recipients) and contended-enrollment (Contended, 64 workers) workloads
// run untraced and with 0.1% probability-sampled tracing behind an async
// ring, the production observability configuration. The headline is the
// sampled star run against its untraced baseline — delta_pct within noise
// is the claim that always-on sampling costs nothing on unsampled
// performances.
//
// The whole suite runs under a raised GOGC (for both configurations
// alike): the star workload keeps only a few MB live while allocating
// hundreds of MB/s, a regime where any perturbation of the GC pacer —
// even the tracer's resident ring — shows up as extra mark cycles worth
// a couple percent. Production heaps are nowhere near that sensitivity,
// so the damped-GC comparison is the representative one; the contended
// cells, which are allocation-light, measure the undamped scheduler path.
func runSamplingSuite(s Spec) Result {
	oldGC := debug.SetGCPercent(400)
	defer debug.SetGCPercent(oldGC)
	measure := func(run func(opts ...core.Option) testing.BenchmarkResult) (plain, sampled testing.BenchmarkResult, deltas []float64) {
		// Each timed run starts from a collected heap: whichever config runs
		// second in a pair would otherwise inherit the first run's garbage
		// and GC pacing, a systematic handicap the paired delta would read
		// as sampling overhead.
		runPlain := func() testing.BenchmarkResult {
			runtime.GC()
			return run()
		}
		runSampled := func() testing.BenchmarkResult {
			async := trace.NewAsync(&trace.Log{}, 0)
			defer async.Close()
			runtime.GC()
			return run(
				core.WithTracer(async),
				core.WithSampler(trace.NewProbabilitySampler(samplingRate, 10)))
		}
		deltas = make([]float64, 0, samplingRounds)
		for r := 0; r < samplingRounds; r++ {
			// Alternate which configuration goes first so warm-up and drift
			// don't systematically favor one side of the comparison.
			var p, sp testing.BenchmarkResult
			if r%2 == 0 {
				p, sp = runPlain(), runSampled()
			} else {
				sp, p = runSampled(), runPlain()
			}
			if ns := nsPerOp(p); ns > 0 {
				deltas = append(deltas, (ns-nsPerOp(sp))/ns*100)
			}
			if r == 0 || nsPerOp(p) < nsPerOp(plain) {
				plain = p
			}
			if r == 0 || nsPerOp(sp) < nsPerOp(sampled) {
				sampled = sp
			}
		}
		return plain, sampled, deltas
	}
	starPlain, starSampled, starDeltas := measure(benchStar)
	contPlain, contSampled, contDeltas := measure(benchContended)

	res := withBaseline(finish(s, starSampled), starPlain)
	// delta_pct is the gated number: the median of every per-round paired
	// (untraced − sampled) delta across both workloads. Pairing cancels
	// machine drift within a round and the median discards disturbed
	// rounds; pooling the workloads matters because the star's scheduler-bound
	// runs swing a few percent either way run to run, while a real sampling
	// regression shifts every round of both workloads at once. It is
	// deliberately NOT recomputed from the fastest-round ns_per_op numbers
	// reported alongside, whose minima come from different rounds.
	all := append(append([]float64(nil), starDeltas...), contDeltas...)
	sort.Float64s(all)
	if n := len(all); n > 0 {
		res.DeltaPct = all[n/2]
	}
	point := func(workload string, isSampled bool, br testing.BenchmarkResult) SamplingPoint {
		return SamplingPoint{
			Workload:    workload,
			Sampled:     isSampled,
			Iterations:  br.N,
			NsPerOp:     nsPerOp(br),
			AllocsPerOp: br.AllocsPerOp(),
		}
	}
	res.Sampling = []SamplingPoint{
		point("star-broadcast-64", false, starPlain),
		point("star-broadcast-64", true, starSampled),
		point("contended-enrollment-64", false, contPlain),
		point("contended-enrollment-64", true, contSampled),
	}
	return res
}

// runPingPong is E5: `pairs` disjoint (sender, receiver) pairs exchange b.N
// messages in total through one fabric; each committed rendezvous is one op.
// With forceSlow, every op takes the locked matcher — the pre-two-lane
// behavior — so the pair measures exactly what the fast lane buys.
func runPingPong(pairs int, forceSlow bool) testing.BenchmarkResult {
	var opts []rendezvous.Option
	if forceSlow {
		opts = append(opts, rendezvous.WithoutFastPath())
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f := rendezvous.New(opts...)
		ctx := context.Background()
		var failures atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for p := 0; p < pairs; p++ {
			from := rendezvous.Addr(fmt.Sprintf("S%d", p))
			to := rendezvous.Addr(fmt.Sprintf("R%d", p))
			n := b.N / pairs
			if p == 0 {
				n += b.N % pairs
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := f.Send(ctx, from, to, "t", i); err != nil {
						failures.Add(1)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := f.Recv(ctx, to, from, "t"); err != nil {
						failures.Add(1)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if failures.Load() > 0 {
			b.Fatalf("%d fabric ops failed", failures.Load())
		}
	})
}

// runScatter is E6: one op is a complete 64-recipient fan-out from a single
// sender — vectorized through Fabric.Scatter, or (with serial) the paper's
// Figure 3 loop of n blocking sends.
func runScatter(n int, serial bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f := rendezvous.New()
		ctx := context.Background()
		targets := make([]rendezvous.Addr, n)
		for i := range targets {
			targets[i] = rendezvous.Addr(fmt.Sprintf("R%d", i))
		}
		var failures atomic.Int64
		var wg sync.WaitGroup
		for _, to := range targets {
			to := to
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					if _, err := f.Recv(ctx, to, "S", "t"); err != nil {
						failures.Add(1)
						return
					}
				}
			}()
		}
		val := []any{1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if serial {
				for _, to := range targets {
					if err := f.Send(ctx, "S", to, "t", 1); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				if err := f.Scatter(ctx, "S", "t", targets, val); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		wg.Wait()
		if failures.Load() > 0 {
			b.Fatalf("%d receives failed", failures.Load())
		}
	})
}
