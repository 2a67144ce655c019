// Command scriptload is the repository's end-to-end benchmark: four
// workloads laid out as a 2×2 — {in-process core.Instance, real scriptd
// child over loopback SCRW v2} × {cast-heavy vectorised fan-out, op-heavy
// guarded Select} — each driven through a closed phase and an open phase on
// a seeded Poisson schedule, with every output checked and every time
// stated at the speed of a nominal machine (see reference). README.md explains
// the workloads, the metrics and which layer should move which of them;
// BENCHMARK.json at the repository root lists the metric names and bounds.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh -workload remote_star -seed 1 -seconds 28 -trace 0
//	bash benchmark/run.sh -workload all -seed 1 -trace 1
//	bash benchmark/run.sh -selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/remote"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("scriptload", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the arrival schedule, the request mix and the values sent")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (0 = run_seconds of "+specFile+")")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics, 0 the end-to-end metrics")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare the two against the bounds")
	verbose := fs.Bool("v", false, "print every slice of every phase to standard error")
	spans := fs.String("spans", "", "with -trace 1, file to write the span dump to (default "+buildDir+"/spans/<workload>.jsonl)")
	idleFor := fs.Int("idle", 0, "internal: keep the processor busy at idle priority while process `pid` lives (see idler)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "scriptload: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *idleFor != 0 {
		return idle(*idleFor)
	}

	// One process on one processor, scriptd beside it, and that processor
	// not left to halt in the open phase: see pinToOneCPU and idler. Where
	// the machine refuses either, the run goes on, noisier.
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "scriptload: not bound to one processor:", err)
	}
	runtime.GOMAXPROCS(1)
	idler, err := startIdler()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scriptload:", err)
	} else {
		defer idler.stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()
	defer killAllChildren()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scriptload:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scriptload:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{root: root, spec: spec, seed: *seed, seconds: *seconds, traced: *traced != 0, setups: 5, spans: *spans, verbose: *verbose, idler: idler}

	if *selfcheck {
		ok, err := selfCheck(cfg, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scriptload:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	todo := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "scriptload: unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	status := 0
	for _, w := range todo {
		cfg.w = w
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scriptload: %s: %v\n", w.name, err)
			return 1
		}
		if err := res.print(out, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "scriptload:", err)
			return 1
		}
		if !res.correct() {
			status = 1
		}
	}
	return status
}

type runConfig struct {
	root    string
	spec    benchSpec
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	setups  int    // set-ups per run; setup_s is their median
	quick   bool   // smoke test: a tenth of the warm-up
	spans   string // span dump path, empty for the default
	verbose bool
	idler   *idler // nil when it could not be started, and in the smoke test
}

type runResult struct {
	workload  string
	values    map[string]float64
	absent    map[string]bool    // per-layer metrics of layers this workload does not run
	spread    map[string]float64 // end-to-end: quartile distance over slices, share of median
	attempted int
	failed    int
	speedNote string   // the machine's speed during the run, relative to nominal
	broken    []string // wrong behaviour: failed drain, too many connections
	invalid   []string // the measurement is unsound: late generator, rate not sustained
	spans     []span
}

// correct says the outputs were right: nothing failed, scriptd drained, the
// connection count held. It is deliberately not the same as valid: a run
// whose generator fell behind because the machine was taken away measured
// the wrong thing, but computed nothing wrong.
func (r *runResult) correct() bool { return r.failed == 0 && len(r.broken) == 0 }

func (r *runResult) valid() bool { return r.correct() && len(r.invalid) == 0 }

// setUp builds one session of the workload: instance or scriptd child,
// resident roles, and a checked warm-up. Its duration is one setup_s sample.
func setUp(cfg runConfig, ts *traceSet, on *atomic.Bool) (*env, session, error) {
	w := cfg.w
	e := &env{w: w, seed: cfg.seed, trace: ts, on: on}
	if w.remote() {
		bin, err := buildScriptd(cfg.root)
		if err != nil {
			return nil, nil, err
		}
		if e.child, err = spawnScriptd(bin, w.script, w.n); err != nil {
			return nil, nil, err
		}
		e.enr = remote.NewEnroller(e.child.addr, remote.EnrollerConfig{Script: w.script})
		e.enroll = e.enr.Enroll
	} else {
		e.inst = core.NewInstance(w.def(w.n))
		e.enroll = e.inst.Enroll
	}
	s, err := w.start(e)
	if err == nil {
		err = warmUp(cfg, s)
	}
	if err != nil {
		if s != nil {
			s.stop()
		}
		_ = tearDown(e, nil)
		return nil, nil, err
	}
	return e, s, nil
}

func warmUp(cfg runConfig, s session) error {
	n := cfg.w.warmup
	if cfg.quick {
		n /= 10
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if r := s.op(ctx, 0, i, nil); r.err != nil {
			return fmt.Errorf("warm-up operation %d: %w", i, r.err)
		}
	}
	if bad := s.wrong(); bad > 0 {
		return fmt.Errorf("warm-up: %d wrong outputs", bad)
	}
	return nil
}

// tearDown stops the session and drains scriptd. A failed drain is
// returned: it fails the run.
func tearDown(e *env, s session) error {
	if s != nil {
		s.stop()
	}
	if e.inst != nil {
		e.inst.Close()
	}
	if e.enr != nil {
		_ = e.enr.Close() // the drain below is what decides
	}
	if e.child != nil {
		return e.child.drain()
	}
	return nil
}

// selfCounters is the load generator's own side of a counter reading.
type selfCounters struct {
	mem              runtime.MemStats
	fast, slow, abrt uint64
}

func readSelf() selfCounters {
	var c selfCounters
	runtime.ReadMemStats(&c.mem)
	c.fast = metrics.Get(metrics.FabricFastLaneOps).Load()
	c.slow = metrics.Get(metrics.FabricSlowLaneOps).Load()
	c.abrt = metrics.Get(metrics.PerformancesAborted).Load()
	return c
}

func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// runWorkload is one run: set up (several times, for a steady setup_s),
// measure for cfg.seconds, tear down, derive the metrics.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{
		workload: w.name,
		values:   make(map[string]float64),
		absent:   make(map[string]bool),
		spread:   make(map[string]float64),
	}
	// Restart this process's peak-RSS mark, so that peak_rss_mb is this
	// run's and not the largest of the runs -workload all or -selfcheck made
	// before it. Where the kernel refuses, the first run's mark stands.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	var ts *traceSet
	on := new(atomic.Bool)
	if cfg.traced {
		ts = newTraceSet()
	}

	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	alarm, err := newAlarm()
	if err != nil {
		return nil, err
	}
	defer alarm.close()

	var e *env
	var s session
	var setups []float64
	speed := ref.speed()
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := tearDown(e, s); err != nil {
				return nil, fmt.Errorf("tear-down of set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		if e, s, err = setUp(cfg, ts, on); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		took := time.Since(t0).Seconds()
		next := ref.speed()
		setups = append(setups, took*(speed+next)/2)
		speed = next
	}
	torn := false
	defer func() {
		if !torn {
			_ = tearDown(e, s)
		}
	}()

	pr := &phaseRunner{s: s, w: w, child: e.child, ref: ref, alarm: alarm, idler: cfg.idler}
	if cfg.traced {
		for i := 0; i < max(w.callers, w.workers); i++ {
			pr.recs = append(pr.recs, ts.recorder(fmt.Sprintf("initiator%d", i), true))
		}
	}
	runOpen := func(dur time.Duration) (*phase, error) {
		return pr.runOpen(dur, poissonSchedule(cfg.seed, w.rate, openSchedule(dur)))
	}

	var phases []*phase
	if !cfg.traced {
		closed := pr.closed(secs(cfg.seconds / 2))
		res.checkConns(e)
		open, err := runOpen(secs(cfg.seconds / 2))
		if err != nil {
			return nil, err
		}
		phases = []*phase{closed, open}
		rss, err := peakRSSMB("self")
		if err == nil && e.child != nil {
			var c float64
			c, err = peakRSSMB(fmt.Sprint(e.child.pid()))
			rss += c
		}
		if err != nil {
			return nil, fmt.Errorf("peak RSS: %w", err)
		}
		res.endToEnd(median(setups), closed, open, rss)
		res.validateOpen(open)
	} else {
		// A fifth of the time untraced, for the counters and as the base of
		// trace_overhead_pct; then the same closed phase and an open phase
		// with spans on; the last fifth goes to the single-layer loops.
		dial, dialOK := 0.0, false
		if e.child != nil {
			before := ref.speed()
			var err error
			if dial, err = measureDial(e.child.addr, w.script, 15); err != nil {
				return nil, fmt.Errorf("dial: %w", err)
			}
			dial, dialOK = dial*(before+ref.speed())/2, true
		}
		var h [3]hostCounters
		read := func(i int) {
			if e.child != nil {
				h[i] = e.child.counters()
			}
		}
		read(0)
		s0 := readSelf()
		plain := pr.closed(secs(cfg.seconds * 0.2))
		s1 := readSelf()
		read(1)
		res.checkConns(e)
		on.Store(true)
		closed := pr.closed(secs(cfg.seconds * 0.3))
		open, err := runOpen(secs(cfg.seconds * 0.3))
		if err != nil {
			return nil, err
		}
		on.Store(false)
		s2 := readSelf()
		read(2)
		phases = []*phase{plain, closed, open}
		res.validateOpen(open)
		res.perLayer(w, ts, plain, closed, open, s0, s1, s2, h, dial, dialOK)
		if ls, ok := s.(*lockSession); ok {
			res.values["patterns.lock_granted_share"] = ls.grantedShare()
		} else {
			res.setAbsent("patterns.lock_granted_share")
		}
	}

	for _, ph := range phases {
		if cfg.verbose {
			ph.printSlices(os.Stderr)
		}
		res.attempted += ph.attempts
		res.failed += ph.failures
	}
	res.failed += int(s.wrong())
	res.failed = min(res.failed, res.attempted)
	if ref.err != nil {
		return nil, ref.err // every time of this run was to be stated by it
	}

	torn = true
	if err := tearDown(e, s); err != nil {
		res.broken = append(res.broken, err.Error())
	}

	if cfg.traced {
		res.values["loadgen.failed_share"] = float64(res.failed) / float64(max(res.attempted, 1))
		if err := measureLayers(secs(cfg.seconds*0.2), ref, res.values); err != nil {
			return nil, fmt.Errorf("layer loops: %w", err)
		}
		res.spans = ts.retained()
		path := cfg.spans
		if path == "" {
			path = filepath.Join(cfg.root, buildDir, "spans", w.name+".jsonl")
		}
		if err := dumpSpans(path, res.spans); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
	}
	return res, nil
}

func (r *runResult) setAbsent(names ...string) {
	for _, n := range names {
		r.values[n] = 0
		r.absent[n] = true
	}
}

// checkConns fails the run when the load generator holds more TCP
// connections to scriptd than the machine has processors: resident roles
// are meant to be multiplexed, not given a socket each.
func (r *runResult) checkConns(e *env) {
	if e.child == nil {
		return
	}
	prom, err := scrapeProm(e.child.metricsAddr)
	if err != nil {
		r.broken = append(r.broken, fmt.Sprintf("scrape scriptd_host_conns: %v", err))
		return
	}
	if conns := prom["scriptd_host_conns"]; conns > float64(runtime.NumCPU()) {
		r.broken = append(r.broken, fmt.Sprintf("scriptd_host_conns = %v exceeds %d processors", conns, runtime.NumCPU()))
	}
}

func (r *runResult) validateOpen(open *phase) {
	if open.attempts > 0 && float64(open.late)/float64(open.attempts) > 0.05 {
		r.invalid = append(r.invalid, fmt.Sprintf("generator late on %d of %d arrivals (max lag %v)", open.late, open.attempts, open.maxLag))
	}
	if !open.sustained() {
		r.invalid = append(r.invalid, "the open phase's rate was not sustained: most slices were still being served long after their end")
	}
}

// endToEnd derives the end-to-end metrics, every time among them at
// nominal speed: throughput is the median over the closed phase's slices
// (their quartile distance beside it), the latencies are medians over all
// operations of their phase.
func (r *runResult) endToEnd(setup float64, closed, open *phase, rssMB float64) {
	perSec := closed.perSec()
	r.values["setup_s"] = setup
	r.values["throughput_per_s"] = median(perSec)
	r.spread["throughput_per_s"] = quartileSpread(perSec)
	r.values["latency_p50_ms"] = closed.lat.quantile(0.50)
	r.values["open_latency_p50_ms"] = open.lat.quantile(0.50)
	r.values["cpu_us_per_perf"] = closed.cpuPerOp()
	r.values["peak_rss_mb"] = rssMB
	r.speedNote = fmt.Sprintf("machine speed relative to nominal: closed phase %.3f, open phase %.3f", closed.meanSpeed(), open.meanSpeed())
}

// perLayer derives the per-layer metrics of a traced run. plain is the
// untraced closed sub-phase, bracketed by the counter readings s0/s1 and
// h[0]/h[1]; closed and open ran with spans on and end at s2 and h[2].
func (r *runResult) perLayer(w *workload, ts *traceSet, plain, closed, open *phase,
	s0, s1, s2 selfCounters, h [3]hostCounters, dial float64, dialOK bool) {
	v := r.values
	ops := math.Max(float64(plain.ops()), 1)
	elapsed := plain.busy().Seconds()
	// Spans are timed as they happen; their medians are stated at nominal
	// speed with the mean speed of the two phases that recorded them.
	spanSpeed := (closed.meanSpeed()*closed.busy().Seconds() + open.meanSpeed()*open.busy().Seconds()) /
		math.Max((closed.busy()+open.busy()).Seconds(), 1e-9)
	perOp := func(name string, delta float64, ok bool) {
		if ok {
			v[name] = delta / ops
		} else {
			r.setAbsent(name)
		}
	}
	span := func(name string, k spanKind, initiatorOnly, applies bool) {
		if p50, ok := ts.p50us(k, initiatorOnly); ok && applies {
			v[name] = p50 * spanSpeed
		} else {
			r.setAbsent(name)
		}
	}

	// loadgen: is the run itself sound.
	plainTput, tracedTput := plain.perSec(), closed.perSec()
	v["loadgen.max_lag_ms"] = ms(open.maxLag)
	v["loadgen.late_share"] = float64(open.late) / float64(max(open.attempts, 1))
	v["loadgen.latency_p90_ms"] = plain.lat.quantile(0.90)
	v["loadgen.open_latency_p90_ms"] = open.lat.quantile(0.90)
	v["loadgen.latency_p99_ms"] = plain.lat.quantile(0.99)
	v["loadgen.open_latency_p99_ms"] = open.lat.quantile(0.99)
	v["loadgen.segment_spread_pct"] = quartileSpread(plainTput) * 100
	if base := median(plainTput); base > 0 {
		v["loadgen.trace_overhead_pct"] = (base - median(tracedTput)) / base * 100
	} else {
		r.setAbsent("loadgen.trace_overhead_pct") // a phase too short to finish an operation per slice
	}

	local, rem := !w.remote(), w.remote()

	// core: admission and release as the initiating caller sees them, and
	// what a performance costs the process that runs the instance. On a
	// remote workload that process is scriptd: see remote.host_*.
	span("core.admit_us", kAdmit, true, local)
	span("core.release_us", kRelease, true, local)
	perOp("core.allocs_per_perf", float64(s1.mem.Mallocs-s0.mem.Mallocs), local)
	perOp("core.bytes_per_perf", float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc), local)
	if local {
		v["core.gc_pause_ms_per_s"] = float64(s1.mem.PauseTotalNs-s0.mem.PauseTotalNs) / 1e6 / elapsed
		v["core.performances_aborted"] = float64(s2.abrt - s0.abrt)
	} else {
		r.setAbsent("core.gc_pause_ms_per_s")
		if h[0].promOK && h[2].promOK {
			v["core.performances_aborted"] = h[2].prom[metrics.PerformancesAborted] - h[0].prom[metrics.PerformancesAborted]
		} else {
			r.setAbsent("core.performances_aborted")
		}
	}

	// rendezvous: time inside the Ctx communication calls of every role,
	// and the exact lane counts of the untraced sub-phase.
	span("rendezvous.op_sendall_us", kOpSendAll, false, local)
	span("rendezvous.op_recv_us", kOpRecv, false, local)
	span("rendezvous.op_select_us", kOpSelect, false, local)
	fast, slow, lanesOK := float64(s1.fast-s0.fast), float64(s1.slow-s0.slow), true
	if rem {
		lanesOK = h[0].promOK && h[1].promOK
		if lanesOK {
			fast = h[1].prom[metrics.FabricFastLaneOps] - h[0].prom[metrics.FabricFastLaneOps]
			slow = h[1].prom[metrics.FabricSlowLaneOps] - h[0].prom[metrics.FabricSlowLaneOps]
		}
	}
	perOp("rendezvous.fast_ops_per_perf", fast, lanesOK)
	perOp("rendezvous.slow_ops_per_perf", slow, lanesOK)
	if lanesOK && fast+slow > 0 {
		v["rendezvous.fast_share"] = fast / (fast + slow)
	} else {
		r.setAbsent("rendezvous.fast_share")
	}

	// wire: what scriptd's side of the socket did per operation.
	ioOK := rem && h[0].ioOK && h[1].ioOK
	perOp("wire.host_write_syscalls_per_perf", float64(h[1].syscw-h[0].syscw), ioOK)
	perOp("wire.host_read_syscalls_per_perf", float64(h[1].syscr-h[0].syscr), ioOK)
	perOp("wire.host_bytes_out_per_perf", float64(h[1].wchar-h[0].wchar), ioOK)
	perOp("wire.host_bytes_in_per_perf", float64(h[1].rchar-h[0].rchar), ioOK)
	if rem && h[1].promOK {
		v["wire.conns"] = h[1].prom["scriptd_host_conns"]
	} else {
		r.setAbsent("wire.conns")
	}

	// remote: the same spans, now crossing the wire, and the two
	// processes' costs apart.
	span("remote.admit_us", kAdmit, true, rem)
	span("remote.release_us", kRelease, true, rem)
	span("remote.op_send_us", kOpSend, false, rem)
	span("remote.op_select_us", kOpSelect, false, rem)
	span("remote.op_sendall_us", kOpSendAll, false, rem)
	span("remote.op_recv_us", kOpRecv, false, rem)
	if dialOK {
		v["remote.dial_handshake_ms"] = dial
	} else {
		r.setAbsent("remote.dial_handshake_ms")
	}
	perOp("remote.host_cpu_us_per_perf", float64(h[1].cpu-h[0].cpu)/1e3*plain.meanSpeed(), rem && h[0].cpuOK && h[1].cpuOK)
	perOp("remote.client_cpu_us_per_perf", float64(plain.cpuSelf())/1e3*plain.meanSpeed(), rem)
	perOp("remote.host_allocs_per_perf", float64(h[1].mallocs-h[0].mallocs), rem && h[0].varsOK && h[1].varsOK)
	perOp("remote.client_allocs_per_perf", float64(s1.mem.Mallocs-s0.mem.Mallocs), rem)
	perOp("remote.host_ctxsw_per_perf", float64(h[1].ctxsw-h[0].ctxsw), rem && h[0].ctxswOK && h[1].ctxswOK)
	if rem && h[0].varsOK && h[1].varsOK {
		v["remote.host_gc_pause_ms_per_s"] = float64(h[1].pauseNs-h[0].pauseNs) / 1e6 / elapsed
	} else {
		r.setAbsent("remote.host_gc_pause_ms_per_s")
	}
	if rem && h[0].promOK && h[1].promOK && h[2].promOK {
		peak := 0.0
		for _, c := range h {
			peak = math.Max(peak, c.prom["scriptd_host_active_streams"])
		}
		v["remote.streams_peak"] = peak
		v["remote.shed_enrollments"] = h[2].prom["scriptd_host_shed_enrollments_total"] - h[0].prom["scriptd_host_shed_enrollments_total"]
		v["remote.sessions_parked"] = h[2].prom[metrics.SessionsParked] - h[0].prom[metrics.SessionsParked]
	} else {
		r.setAbsent("remote.streams_peak", "remote.shed_enrollments", "remote.sessions_parked")
	}
}

// ---- output ----

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// print writes the metrics by name with their units, then the result
// object as the last line.
func (r *runResult) print(out io.Writer, cfg runConfig) error {
	kind, want := "end-to-end", cfg.spec.EndToEnd
	if cfg.traced {
		kind, want = "per-layer", cfg.spec.PerLayer
	}
	if err := checkNames(kind, want, r.values); err != nil {
		return err
	}
	fmt.Fprintf(out, "# %s  seed %d  %.3g s  %s metrics\n", r.workload, cfg.seed, cfg.seconds, kind)
	o := output{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]outMetric)}
	for _, m := range want {
		val := r.values[m.Name]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, val)
		}
		o.Metrics[m.Name] = outMetric{Value: val, Unit: m.Unit}
		switch {
		case r.absent[m.Name]:
			fmt.Fprintf(out, "%-40s %14s %s\n", m.Name, "absent", m.Unit)
		case cfg.traced || r.spread[m.Name] == 0:
			fmt.Fprintf(out, "%-40s %14.6g %s\n", m.Name, val, m.Unit)
		default:
			fmt.Fprintf(out, "%-40s %14.6g %-6s slice quartile distance %.1f%%\n", m.Name, val, m.Unit, r.spread[m.Name]*100)
		}
	}
	if r.speedNote != "" {
		fmt.Fprintln(out, r.speedNote)
	}
	fmt.Fprintf(out, "attempted %d  failed %d\n", r.attempted, r.failed)
	for _, why := range r.broken {
		fmt.Fprintf(out, "WRONG: %s\n", why)
	}
	for _, why := range r.invalid {
		fmt.Fprintf(out, "INVALID: %s\n", why)
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// selfCheck runs the full untraced set twice on this binary and holds the
// second against the first with the bounds of BENCHMARK.json: the noise
// floor any later comparison of two commits has to clear.
func selfCheck(cfg runConfig, out io.Writer) (bool, error) {
	cfg.traced = false
	var sets [2]map[string]*runResult
	for i := range sets {
		sets[i] = make(map[string]*runResult)
		for _, w := range workloads {
			cfg.w = w
			res, err := runWorkload(cfg)
			if err != nil {
				return false, fmt.Errorf("set %d, %s: %w", i+1, w.name, err)
			}
			sets[i][w.name] = res
			fmt.Fprintf(out, "set %d  %-14s done (attempted %d, failed %d)\n", i+1, w.name, res.attempted, res.failed)
		}
	}
	pass := true
	fmt.Fprintf(out, "%-14s %-22s %12s %12s %8s %8s %6s\n", "workload", "metric", "first", "second", "worse%", "slice-iqr%", "bound%")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, m := range cfg.spec.EndToEnd {
			x, y := a.values[m.Name], b.values[m.Name]
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > m.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(out, "%-14s %-22s %12.6g %12.6g %8.1f %8.1f %6.0f %s\n",
				w.name, m.Name, x, y, worse*100, math.Max(a.spread[m.Name], b.spread[m.Name])*100, m.Bound*100, verdict)
		}
		for _, r := range []*runResult{a, b} {
			if !r.valid() {
				pass = false
				fmt.Fprintf(out, "%-14s FAIL: failed %d of %d, wrong: %v, invalid: %v\n", w.name, r.failed, r.attempted, r.broken, r.invalid)
			}
		}
	}
	return pass, nil
}
