package remote

import (
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/registry"
)

var staleLoadFallbacks = metrics.Get(metrics.StaleLoadFallbacks)

// DefaultStaleLoadAfter is how old a load digest may be before the
// least-loaded strategy stops trusting it: a small multiple of the
// registry's announce cadence, which bounds digest age.
const DefaultStaleLoadAfter = 3 * time.Second

// HostView is one candidate host as a Balancer sees it for a single pick:
// its breaker state (never half-open — pickHost tiers those out) and its
// freshest registry-announced load digest. Views arrive pre-filtered — only
// hosts the enroller is willing to use right now — and pre-rotated by
// attempt, so index 0 differs between retries.
type HostView struct {
	Addr    string
	Breaker BreakerState
	// Load is the host's last announced digest; HasLoad is false when the
	// host has never announced one (static configs without a registry).
	Load    registry.Load
	HasLoad bool
	// LoadAge is how old the digest is; Stale means it is missing or older
	// than DefaultStaleLoadAfter.
	LoadAge time.Duration
	Stale   bool
}

// Balancer chooses a host among the usable candidates of one enrollment
// attempt. Pick returns an index into views (out-of-range falls back to 0);
// rng is the enroller's seeded stream, already serialized, so strategies
// that randomize stay deterministic under RetryPolicy.Seed. Implementations
// must be safe for concurrent use (Pick is serialized per enroller by the
// rng lock today, but one Balancer may back several enrollers).
type Balancer interface {
	// Name labels the strategy in metrics
	// (remote_balancer_picks_<name>_total).
	Name() string
	Pick(views []HostView, rng *rand.Rand) int
}

// NewFailover returns the historical strategy: the first candidate wins.
// Views are rotated by attempt, so pure failover configs still spread
// retries instead of hammering index 0; on attempt 0 the first configured
// host is always the primary.
func NewFailover() Balancer { return failoverBalancer{} }

type failoverBalancer struct{}

func (failoverBalancer) Name() string                            { return "failover" }
func (failoverBalancer) Pick(views []HostView, _ *rand.Rand) int { _ = views; return 0 }

// NewRoundRobin returns the rotating strategy: successive picks walk the
// candidate list, giving the tightest spread when hosts are homogeneous.
// The cursor is per-Balancer, so share one value across enrollers to
// rotate globally.
func NewRoundRobin() Balancer { return &roundRobinBalancer{} }

type roundRobinBalancer struct {
	cursor atomic.Uint64
}

func (*roundRobinBalancer) Name() string { return "round_robin" }
func (b *roundRobinBalancer) Pick(views []HostView, _ *rand.Rand) int {
	return int((b.cursor.Add(1) - 1) % uint64(len(views)))
}

// NewLeastLoaded returns the least-shed/least-pending strategy: among
// candidates with fresh digests it picks the lowest load score — recent
// sheds dominate (a shedding host is full no matter what its counters
// say), then the pending-offer backlog, then admitted enrollments, then
// connections. Ties, and the all-digests-stale fallback (counted in
// remote_stale_load_fallbacks_total), rotate round-robin so equally-loaded
// hosts share the traffic instead of herding onto the first.
func NewLeastLoaded() Balancer { return &leastLoadedBalancer{} }

type leastLoadedBalancer struct {
	cursor atomic.Uint64
}

func (*leastLoadedBalancer) Name() string { return "least_loaded" }

func loadScore(l registry.Load) uint64 {
	s := l.ShedRecent * 1_000_000
	s += uint64(max(l.PendingOffers, 0)) * 100
	s += uint64(max(l.Enrolling, 0)) * 10
	s += uint64(max(l.Conns, 0))
	return s
}

func (b *leastLoadedBalancer) Pick(views []HostView, _ *rand.Rand) int {
	best := -1
	var bestScore uint64
	ties := 0
	for i, v := range views {
		if v.Stale {
			continue
		}
		s := loadScore(v.Load)
		switch {
		case best < 0 || s < bestScore:
			best, bestScore, ties = i, s, 1
		case s == bestScore:
			ties++
		}
	}
	if best < 0 {
		// Every digest is stale (or absent): fall back to round-robin
		// rather than trusting dead information.
		staleLoadFallbacks.Inc()
		return int((b.cursor.Add(1) - 1) % uint64(len(views)))
	}
	if ties > 1 {
		// Rotate among the tied minimum so equal hosts split the traffic.
		k := int(b.cursor.Add(1)-1) % ties
		for i, v := range views {
			if v.Stale || loadScore(v.Load) != bestScore {
				continue
			}
			if k == 0 {
				return i
			}
			k--
		}
	}
	return best
}
