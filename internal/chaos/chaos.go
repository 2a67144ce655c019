// Package chaos is the repository's fault-injection harness: a seeded
// implementation of core.FaultInjector that perturbs the runtime's timing
// and signalling — communication latency, dropped (late-redelivered)
// scheduler wakeups, spurious context cancellations — without ever being
// able to violate the runtime's semantics. The chaos soak tests attach an
// Injector to busy instances and assert that no enrollment is lost, no
// goroutine deadlocks, and the recorded trace still conforms.
//
// Determinism: every decision is drawn from one seeded PRNG behind a
// mutex, so a single-goroutine caller replays the identical decision
// stream from the same seed. Under concurrency the *interleaving* of draws
// varies, but the per-seed stream itself is reproducible, which is what
// makes failure reports ("seed 20260806 wedged") actionable.
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/rendezvous"
)

// Config tunes an Injector. Each fault class has an independent probability
// (0 disables the class) and a maximum magnitude; drawn magnitudes are
// uniform in (0, max].
type Config struct {
	// Seed initialises the PRNG; the same seed yields the same decision
	// stream.
	Seed int64

	// OpDelayP is the probability that a communication operation is delayed,
	// and OpDelayMax the largest injected latency.
	OpDelayP   float64
	OpDelayMax time.Duration

	// WakeDelayP is the probability that a scheduler wakeup is withheld and
	// redelivered late, and WakeDelayMax the largest withholding.
	WakeDelayP   float64
	WakeDelayMax time.Duration

	// CancelP is the probability that a blocking communication's context is
	// spuriously cancelled, and CancelAfterMax the largest delay before the
	// cancellation fires. A posted op has no context, and is not drawn for.
	CancelP        float64
	CancelAfterMax time.Duration

	// FastDelayP is the probability that a fast-lane handoff is delayed
	// after parking in its exchange cell (widening the escalation race
	// windows), and FastDelayMax the largest injected latency.
	FastDelayP   float64
	FastDelayMax time.Duration

	// FastEvictP is the probability that a parked fast-lane op is spuriously
	// evicted from its exchange cell and re-routed through the slow lane —
	// a pure rerouting fault that must never change what the op matches.
	FastEvictP float64

	// NetDelayP is the probability that a wire frame write is delayed (slow
	// or congested link), and NetDelayMax the largest injected latency.
	NetDelayP   float64
	NetDelayMax time.Duration

	// NetDropP is the probability that a connection is severed at a frame
	// boundary — a partition or crashed peer. The remote host maps the drop
	// onto its disconnect path: the victim's performance aborts, blaming the
	// vanished role.
	NetDropP float64

	// NetCutP is the probability, per client-side wire operation, that the
	// enroller's live connection is severed mid-op — a transient network
	// blip as the client sees it. With session resumption enabled the cut
	// must be invisible (the op completes after a reconnect); without it the
	// cut reproduces the abort taxonomy of a dropped connection.
	NetCutP float64

	// NetStallP is the probability that a client heartbeat stalls before
	// sending, and NetStallMax the largest stall. Stalls beyond the host's
	// heartbeat timeout are indistinguishable from a dead peer.
	NetStallP   float64
	NetStallMax time.Duration

	// OverloadP is the probability that the remote host sheds an enrollment
	// with ErrOverloaded even under its admission caps — an injected
	// overload burst. Admission-only by construction: the fault is consulted
	// before the enrollment enters the scheduler, so it can never abort
	// in-flight work.
	OverloadP float64

	// GossipDropP is the probability that an outgoing gossip announcement
	// packet is dropped (lossy discovery plane). Gossip is anti-entropy, so
	// drops may slow convergence but can never corrupt membership.
	GossipDropP float64

	// GossipDelayP is the probability that an outgoing gossip packet is
	// delayed, and GossipDelayMax the largest injected latency — stale views
	// and reordered announcements.
	GossipDelayP   float64
	GossipDelayMax time.Duration

	// GossipDupP is the probability that an outgoing gossip packet is sent
	// twice; merges must be idempotent under duplication.
	GossipDupP float64

	// GossipStaleP is the probability that a gossip round re-announces the
	// previous load digest instead of reading a fresh one — a host whose
	// load reporting lags its real load.
	GossipStaleP float64
}

// Injector implements core.FaultInjector with seeded randomness and
// per-class hit counters. Safe for concurrent use.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	opDelays     atomic.Uint64
	wakeDelays   atomic.Uint64
	cancels      atomic.Uint64
	fastDelays   atomic.Uint64
	fastEvicts   atomic.Uint64
	netDelays    atomic.Uint64
	netDrops     atomic.Uint64
	netCuts      atomic.Uint64
	netStalls    atomic.Uint64
	overloads    atomic.Uint64
	gossipDrops  atomic.Uint64
	gossipDelays atomic.Uint64
	gossipDups   atomic.Uint64
	gossipStales atomic.Uint64
	consultions  atomic.Uint64
}

var (
	_ core.FaultInjector    = (*Injector)(nil)
	_ rendezvous.FastFaults = (*Injector)(nil)
	_ remote.NetFaults      = (*Injector)(nil)
	_ registry.GossipFaults = (*Injector)(nil)
)

// New returns an Injector drawing from a PRNG seeded with cfg.Seed.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// delay makes one probabilistic decision of a magnitude class: with
// probability p it counts a hit and returns a duration uniform in (0, max],
// otherwise 0. A disabled class (no probability or no magnitude) draws
// nothing. A single locked PRNG keeps the per-seed decision stream
// reproducible.
func (j *Injector) delay(p float64, max time.Duration, hits *atomic.Uint64) time.Duration {
	j.consultions.Add(1)
	if p <= 0 || max <= 0 {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rng.Float64() >= p {
		return 0
	}
	hits.Add(1)
	return time.Duration(j.rng.Int63n(int64(max))) + 1
}

// hit makes one boolean decision with probability p from the same stream,
// counting it when it fires.
func (j *Injector) hit(p float64, hits *atomic.Uint64) bool {
	j.consultions.Add(1)
	if p <= 0 {
		return false
	}
	j.mu.Lock()
	hit := j.rng.Float64() < p
	j.mu.Unlock()
	if hit {
		hits.Add(1)
	}
	return hit
}

// OpDelay implements core.FaultInjector.
func (j *Injector) OpDelay() time.Duration {
	return j.delay(j.cfg.OpDelayP, j.cfg.OpDelayMax, &j.opDelays)
}

// WakeDelay implements core.FaultInjector.
func (j *Injector) WakeDelay() time.Duration {
	return j.delay(j.cfg.WakeDelayP, j.cfg.WakeDelayMax, &j.wakeDelays)
}

// CancelAfter implements core.FaultInjector.
func (j *Injector) CancelAfter() time.Duration {
	return j.delay(j.cfg.CancelP, j.cfg.CancelAfterMax, &j.cancels)
}

// FastDelay implements rendezvous.FastFaults: a latency imposed after a
// fast-lane op parks in its exchange cell.
func (j *Injector) FastDelay() time.Duration {
	return j.delay(j.cfg.FastDelayP, j.cfg.FastDelayMax, &j.fastDelays)
}

// FastEvict implements rendezvous.FastFaults: with probability FastEvictP
// the parked op is evicted from its cell and retried through the slow lane.
func (j *Injector) FastEvict() bool { return j.hit(j.cfg.FastEvictP, &j.fastEvicts) }

// FrameDelay implements remote.NetFaults: a latency imposed before a wire
// frame write.
func (j *Injector) FrameDelay() time.Duration {
	return j.delay(j.cfg.NetDelayP, j.cfg.NetDelayMax, &j.netDelays)
}

// DropConn implements remote.NetFaults: with probability NetDropP the
// connection is severed at this frame boundary.
func (j *Injector) DropConn() bool { return j.hit(j.cfg.NetDropP, &j.netDrops) }

// CutConn implements remote.NetFaults: with probability NetCutP the
// client's live connection is severed mid-operation.
func (j *Injector) CutConn() bool { return j.hit(j.cfg.NetCutP, &j.netCuts) }

// StallHeartbeat implements remote.NetFaults: how long a client heartbeat
// stalls before sending.
func (j *Injector) StallHeartbeat() time.Duration {
	return j.delay(j.cfg.NetStallP, j.cfg.NetStallMax, &j.netStalls)
}

// Overload implements remote.NetFaults: with probability OverloadP the host
// sheds the enrollment with ErrOverloaded (an injected overload burst).
func (j *Injector) Overload() bool { return j.hit(j.cfg.OverloadP, &j.overloads) }

// DropGossip implements registry.GossipFaults: with probability GossipDropP
// the outgoing announcement packet is dropped.
func (j *Injector) DropGossip() bool { return j.hit(j.cfg.GossipDropP, &j.gossipDrops) }

// DelayGossip implements registry.GossipFaults: how long an outgoing gossip
// packet is delayed.
func (j *Injector) DelayGossip() time.Duration {
	return j.delay(j.cfg.GossipDelayP, j.cfg.GossipDelayMax, &j.gossipDelays)
}

// DupGossip implements registry.GossipFaults: with probability GossipDupP
// the outgoing packet is sent twice.
func (j *Injector) DupGossip() bool { return j.hit(j.cfg.GossipDupP, &j.gossipDups) }

// StaleLoad implements registry.GossipFaults: with probability GossipStaleP
// a round re-announces the previous load digest.
func (j *Injector) StaleLoad() bool { return j.hit(j.cfg.GossipStaleP, &j.gossipStales) }

// GossipStats reports how many gossip-plane faults of each class have been
// injected.
func (j *Injector) GossipStats() (drops, delays, dups, stales uint64) {
	return j.gossipDrops.Load(), j.gossipDelays.Load(), j.gossipDups.Load(), j.gossipStales.Load()
}

// NetStats reports how many network faults of each class have been
// injected.
func (j *Injector) NetStats() (netDelays, netDrops, netStalls uint64) {
	return j.netDelays.Load(), j.netDrops.Load(), j.netStalls.Load()
}

// NetCutCount reports how many mid-op connection cuts have been injected.
func (j *Injector) NetCutCount() uint64 { return j.netCuts.Load() }

// OverloadCount reports how many injected overload sheds have fired.
func (j *Injector) OverloadCount() uint64 { return j.overloads.Load() }

// Stats reports how many faults of each class have been injected and how
// many decisions were drawn in total.
func (j *Injector) Stats() (opDelays, wakeDelays, cancels, decisions uint64) {
	return j.opDelays.Load(), j.wakeDelays.Load(), j.cancels.Load(), j.consultions.Load()
}

// FastStats reports how many fast-lane faults have been injected.
func (j *Injector) FastStats() (fastDelays, fastEvicts uint64) {
	return j.fastDelays.Load(), j.fastEvicts.Load()
}
