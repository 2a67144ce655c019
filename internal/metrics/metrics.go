// Package metrics is the always-on counter registry behind the runtime's
// observability surface: cheap atomic counters (performances, sheds, breaker
// transitions, fabric lane hits, wire connections, trace drops) that every
// layer increments unconditionally, aggregated behind a Stats-style registry
// that cmd/scriptd exposes over HTTP in Prometheus text format.
//
// The package is a leaf: it imports only the standard library, so any layer
// (trace, rendezvous, wire, core, remote) can feed it without import cycles.
// Counters are monotonic uint64s updated with a single atomic add — cheap
// enough to leave on in the hottest paths — and reads are lock-free, so a
// metrics scrape never contends with the scheduler.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; the methods are safe for concurrent use and never block.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Registry is a named set of counters. Get returns a stable *Counter for a
// name, so hot paths resolve their counter once (typically into a package
// variable) and pay only the atomic add per event afterwards.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Get returns the counter registered under name, creating it on first use.
// Names should be Prometheus-style snake_case ending in _total.
func (r *Registry) Get(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot returns the current value of every registered counter. Each value
// is read atomically; the set as a whole is not a consistent cut (counters
// keep moving while the snapshot is taken), which is the usual contract for
// a metrics scrape.
func (r *Registry) Snapshot() map[string]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// WritePrometheus writes every registered counter in the Prometheus text
// exposition format, sorted by name for diffable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, snap[name]); err != nil {
			return err
		}
	}
	return nil
}

// Default is the process-wide registry the runtime's built-in counters feed.
var Default = NewRegistry()

// Get returns a counter from the Default registry.
func Get(name string) *Counter { return Default.Get(name) }

// Built-in counter names, collected here so the inventory is greppable.
// Each layer resolves its counters from Default at package init.
const (
	// internal/core
	PerformancesStarted   = "script_performances_started_total"
	PerformancesCompleted = "script_performances_completed_total"
	PerformancesAborted   = "script_performances_aborted_total"
	// internal/rendezvous
	FabricFastLaneOps = "fabric_fast_lane_ops_total"
	FabricSlowLaneOps = "fabric_slow_lane_ops_total"
	// internal/wire (handshakes negotiated at either end, by version)
	WireConnsV1 = "wire_conns_v1_total"
	WireConnsV2 = "wire_conns_v2_total"
	// internal/wire session resumption: frames replayed after a reconnect,
	// and frames the cumulative receipt count proved already delivered
	// (pruned instead of retransmitted — the sender-side dedup).
	WireFramesRetransmitted = "wire_frames_retransmitted_total"
	WireFramesDeduped       = "wire_frames_deduped_total"
	// internal/remote
	RemoteShedConns       = "remote_shed_conns_total"
	RemoteShedEnrollments = "remote_shed_enrollments_total"
	BreakerTransitions    = "remote_breaker_transitions_total"
	// A client stream's control-event channel found full: zero by
	// construction (the channel holds every event an enrollment can have);
	// anything else means an event kind was added without its slot, and an
	// enrollment is waiting for an event that was thrown away.
	RemoteStreamEventsDropped = "remote_stream_events_dropped_total"
	// A host stream met an event its transition table says cannot occur in
	// its phase: zero by construction; anything else is a defect, and the
	// host tore the stream's session down over it.
	RemoteStreamViolations = "remote_stream_violations_total"
	// internal/remote session resumption: sessions parked at connection
	// loss, re-attached by a RESUME, and expired unresumed (grace window
	// elapsed → the pre-resumption abort path).
	SessionsParked  = "remote_sessions_parked_total"
	SessionsResumed = "remote_sessions_resumed_total"
	SessionsExpired = "remote_sessions_expired_total"
	// internal/remote balancer: picks per strategy (BalancerPicksPrefix +
	// the strategy name + "_total", e.g. remote_balancer_picks_least_loaded_total)
	// plus the least-loaded strategy's all-digests-stale fallback.
	BalancerPicksPrefix = "remote_balancer_picks_"
	StaleLoadFallbacks  = "remote_stale_load_fallbacks_total"
	// Registry-driven host-set changes seen by an enroller.
	RemoteHostsAdded   = "remote_hosts_added_total"
	RemoteHostsRemoved = "remote_hosts_removed_total"
	// internal/registry
	RegistryMembersAdded   = "registry_members_added_total"
	RegistryMembersEvicted = "registry_members_evicted_total"
	RegistryGossipRounds   = "registry_gossip_rounds_total"
	RegistryGossipSent     = "registry_gossip_packets_sent_total"
	RegistryGossipRecv     = "registry_gossip_packets_recv_total"
	RegistryGossipBad      = "registry_gossip_packets_bad_total"
	RegistryGossipOversize = "registry_gossip_oversize_records_total"
	// internal/trace
	TraceSampled       = "trace_sampled_total"
	TraceDroppedFull   = "trace_dropped_ring_full_total"
	TraceDroppedClosed = "trace_dropped_closed_total"
	TraceTableFull     = "trace_table_full_total"
)
