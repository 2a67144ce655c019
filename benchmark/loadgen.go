package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sliceDur is how long the workload runs between two bursts of the speed
// reference. A phase is a hundred or so slices; each slice's times are
// stated at the nominal speed (see reference), and a metric is the median
// over the slices or over all their operations.
const sliceDur = 100 * time.Millisecond

// lateAfter is the dispatch lag beyond which an open-loop arrival counts
// as late. Latency is timed from the due time either way; the share of
// late arrivals says whether the generator, not the system, set the pace.
const lateAfter = time.Millisecond

// phaseGrace is how long after a phase's planned end its operations may
// still complete before they are cancelled and counted as failed. It is long
// because a machine slowed tenfold by its neighbours for a few seconds
// leaves a phase that is late, not wrong.
const phaseGrace = 30 * time.Second

// hist is a latency histogram with buckets 1% apart from 100 ns to 100 s:
// every operation of a phase goes in, and the memory a phase uses does not
// grow with the number of operations. (A log of samples that grows with
// throughput makes the heap, and with it the collector's cadence, depend on
// the very thing being measured.)
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histLo      = 100.0 // ns
	histGrowth  = 1.01
	histBuckets = 2100 // histLo * histGrowth^2100 > 100 s
)

var histLogGrowth = math.Log(histGrowth)

func (h *hist) add(ns float64) {
	i := 0
	if ns > histLo {
		i = min(int(math.Log(ns/histLo)/histLogGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the p-quantile (0..1) in milliseconds, placed inside its
// bucket by rank; 0 when the histogram is empty.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n)
	seen := 0.0
	for i, c := range h.counts {
		if c > 0 && seen+float64(c) >= rank {
			within := math.Max(rank-seen, 0) / float64(c)
			return histLo * math.Pow(histGrowth, float64(i)+within) / 1e6
		}
		seen += float64(c)
	}
	return histLo * math.Pow(histGrowth, histBuckets) / 1e6
}

// slice is what one slice of a phase measured.
type slice struct {
	n       int           // operations that succeeded
	elapsed time.Duration // first call to last return
	cpu     time.Duration // closed phase: this process's CPU meanwhile
	speed   float64       // the machine's speed, from the bursts either side
	overrun time.Duration // open phase: how long past the slice's end its last arrival finished
}

// phase is the outcome of a closed or open phase.
type phase struct {
	open     bool
	slices   []slice
	lat      hist // latencies of the operations that succeeded, at nominal speed
	attempts int
	failures int
	cpuChild time.Duration // scriptd's CPU from the phase's start to its end
	maxLag   time.Duration
	late     int
}

type phaseRunner struct {
	s     session
	w     *workload
	child *child
	ref   *reference
	alarm *alarm
	idler *idler
	recs  []*recorder // one per worker, nil when untraced
}

func (p *phaseRunner) rec(worker int) *recorder {
	if p.recs == nil {
		return nil
	}
	return p.recs[worker]
}

func (p *phaseRunner) childCPU() time.Duration {
	if p.child == nil {
		return 0
	}
	cpu, _ := procCPU(p.child.pid()) // unreadable reads as 0, as for a local workload
	return cpu
}

// record closes a slice: the latencies its operations logged go into the
// histogram at nominal speed.
func (ph *phase) record(s slice, failed int, logs [][]time.Duration) {
	for _, log := range logs {
		s.n += len(log)
		for _, d := range log {
			ph.lat.add(float64(d) * s.speed)
		}
	}
	ph.failures += failed
	if !ph.open {
		ph.attempts += s.n + failed
	}
	ph.slices = append(ph.slices, s)
}

// closed runs the closed phase: w.callers callers, each issuing its next
// operation when the previous one returns, in slices until dur has passed.
func (p *phaseRunner) closed(dur time.Duration) *phase {
	ph := &phase{}
	begin := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), begin.Add(dur+phaseGrace))
	defer cancel()
	child0 := p.childCPU()

	var seq atomic.Int64
	logs := make([][]time.Duration, p.w.callers) // reused from slice to slice
	speed := p.ref.speed()
	for time.Since(begin) < dur {
		var failed atomic.Int64
		var wg sync.WaitGroup
		cpu0, start := selfCPU(), time.Now()
		stop := start.Add(sliceDur)
		for c := range logs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				log := logs[c][:0]
				for time.Now().Before(stop) {
					r := p.s.op(ctx, c, int(seq.Add(1)-1), p.rec(c))
					if r.err != nil {
						failed.Add(1)
						continue
					}
					log = append(log, r.end.Sub(r.start))
				}
				logs[c] = log
			}(c)
		}
		wg.Wait()
		s := slice{elapsed: time.Since(start), cpu: selfCPU() - cpu0}
		next := p.ref.speed()
		s.speed = (speed + next) / 2
		speed = next
		ph.record(s, int(failed.Load()), logs)
	}
	ph.cpuChild = p.childCPU() - child0
	return ph
}

// poissonSchedule is the open phase's arrival times, fixed by the seed
// before the phase starts and independent of how the system responds.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var sched []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return sched
		}
		sched = append(sched, at)
	}
}

// openSchedule is the length of schedule an open phase of dur gets through:
// each slice of it is followed by a burst of the reference.
func openSchedule(dur time.Duration) time.Duration {
	return time.Duration(float64(dur) * float64(sliceDur) / float64(sliceDur+burstDur))
}

type arrival struct {
	seq int
	due time.Time
}

// runOpen runs the open phase: arrivals are dispatched at their due times
// whether or not earlier ones have finished, and each is timed from its
// due time, so a stall shows in the latency of everything queued behind it.
// The schedule is played a slice at a time; after each slice the phase
// waits for the arrivals in flight and runs a burst of the reference.
func (p *phaseRunner) runOpen(dur time.Duration, sched []time.Duration) (*phase, error) {
	ph := &phase{open: true, attempts: len(sched)}
	p.idler.resume()
	defer p.idler.pause()
	begin := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), begin.Add(dur+phaseGrace))
	defer cancel()

	// Sized to the number of sends, so the dispatcher never blocks on a
	// slow system: the queue is where an open loop's backlog lives.
	queue := make(chan arrival, len(sched))
	logs := make([][]time.Duration, p.w.workers) // each written by its worker, read between slices
	var failed atomic.Int64
	var inflight, workers sync.WaitGroup
	for w := range logs {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for a := range queue {
				if r := p.s.op(ctx, w, a.seq, p.rec(w)); r.err != nil {
					failed.Add(1)
				} else {
					logs[w] = append(logs[w], r.end.Sub(a.due))
				}
				inflight.Done()
			}
		}(w)
	}
	defer func() {
		close(queue)
		workers.Wait()
	}()

	speed := p.ref.speed()
	for i := 0; i < len(sched) && ctx.Err() == nil; {
		first := sched[i] / sliceDur * sliceDur // where this slice of the schedule begins
		start := time.Now()
		for ; i < len(sched) && sched[i] < first+sliceDur; i++ {
			due := start.Add(sched[i] - first)
			if err := p.alarm.waitUntil(due); err != nil {
				return nil, err
			}
			lag := time.Since(due)
			ph.maxLag = max(ph.maxLag, lag)
			if lag > lateAfter {
				ph.late++
			}
			inflight.Add(1)
			queue <- arrival{seq: i, due: due}
		}
		inflight.Wait()
		s := slice{elapsed: time.Since(start)}
		s.overrun = max(s.elapsed-sliceDur, 0)
		next := p.ref.speed()
		s.speed = (speed + next) / 2
		speed = next
		ph.record(s, int(failed.Swap(0)), logs)
		for w := range logs {
			logs[w] = logs[w][:0]
		}
		if i < len(sched) && ctx.Err() != nil {
			ph.failures += len(sched) - i // never dispatched: the phase ran out of time
		}
	}
	return ph, nil
}

// sustained reports whether the open phase kept up with its schedule: in a
// phase that did not, the arrivals of a slice are typically still being
// served long after the slice has ended, and latencies measure the length
// of the queue, not the system.
func (ph *phase) sustained() bool {
	return median(column(ph.slices, func(s slice) float64 { return float64(s.overrun) })) <= float64(sliceDur)/4
}

// perSec is each slice's throughput at nominal speed.
func (ph *phase) perSec() []float64 {
	return column(ph.slices, func(s slice) float64 { return float64(s.n) / s.elapsed.Seconds() / s.speed })
}

func (ph *phase) ops() int {
	n := 0
	for _, s := range ph.slices {
		n += s.n
	}
	return n
}

// busy is the time the phase spent in its slices, the bursts left out.
func (ph *phase) busy() time.Duration {
	var d time.Duration
	for _, s := range ph.slices {
		d += s.elapsed
	}
	return d
}

// cpuSelf is this process's CPU over the slices, as measured.
func (ph *phase) cpuSelf() time.Duration {
	var d time.Duration
	for _, s := range ph.slices {
		d += s.cpu
	}
	return d
}

// meanSpeed is the machine's speed over the phase, each slice weighted by
// its length.
func (ph *phase) meanSpeed() float64 {
	sum := 0.0
	for _, s := range ph.slices {
		sum += s.speed * s.elapsed.Seconds()
	}
	if busy := ph.busy().Seconds(); busy > 0 {
		return sum / busy
	}
	return 1
}

// cpuPerOp is the CPU both processes used per operation, in microseconds at
// nominal speed. The load generator's is read around every slice; scriptd's
// comes in 10 ms ticks, too coarse for a slice, and is taken over the phase
// (it idles during the bursts).
func (ph *phase) cpuPerOp() float64 {
	ops := ph.ops()
	if ops == 0 {
		return 0
	}
	self := 0.0
	for _, s := range ph.slices {
		self += float64(s.cpu) * s.speed
	}
	return (self + float64(ph.cpuChild)*ph.meanSpeed()) / 1e3 / float64(ops)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (ph *phase) kind() string {
	if ph.open {
		return "open"
	}
	return "closed"
}

func (ph *phase) printSlices(w io.Writer) {
	kind := ph.kind()
	for k, s := range ph.slices {
		fmt.Fprintf(w, "%-6s slice %3d: %6d ops in %7.2f ms  speed %.3f  %9.1f/s at nominal  cpu %7.2f ms  overrun %6.2f ms\n",
			kind, k+1, s.n, ms(s.elapsed), s.speed, float64(s.n)/s.elapsed.Seconds()/s.speed, ms(s.cpu), ms(s.overrun))
	}
	if ph.open {
		fmt.Fprintf(w, "open   max lag %v, late %d of %d\n", ph.maxLag, ph.late, ph.attempts)
	}
}

func column[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles as Python's
// statistics.quantiles(xs, n=4) gives them — the figure the driver gates on.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
