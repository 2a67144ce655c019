// Package registry is the cluster fabric's discovery layer: scriptd hosts
// announce the script definitions they serve plus a live load digest, and
// enrollers subscribe to learn which hosts serve a script right now. The
// interface is pluggable (the motan-go registry/agent shape: announce,
// subscribe/notify, heartbeat-based eviction) with two implementations that
// avoid any coordination-service dependency:
//
//   - Static: a fixed in-memory member set, optionally loaded (and
//     periodically re-loaded) from a plain text file. Load digests of
//     members announced in-process are read live at snapshot time.
//   - Gossip: a lightweight anti-entropy protocol where nodes exchange
//     full membership digests over periodic UDP rounds. The round IS the
//     heartbeat: every digest carries each member's freshest load, so
//     discovery and load reporting cost zero extra RPCs beyond the rounds
//     already flowing, and a member whose announcements stop advancing is
//     evicted on a heartbeat timeout.
//
// The package is a near-leaf: it imports only the standard library and
// internal/metrics, so internal/remote can build its balancer on it without
// cycles.
package registry

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/scriptabs/goscript/internal/metrics"
)

// Registry counters (see internal/metrics for the inventory).
var (
	membersAdded   = metrics.Get(metrics.RegistryMembersAdded)
	membersEvicted = metrics.Get(metrics.RegistryMembersEvicted)
)

// Load is one host's load digest, derived from remote.HostStats and carried
// with its announcement. Balancers treat it as advisory: it is a snapshot
// from up to one announcement interval ago, never a reservation.
type Load struct {
	// Conns is the number of connections the host is serving.
	Conns int `json:"conns"`
	// Enrolling is the number of enrollments admitted and not yet released.
	Enrolling int `json:"enrolling"`
	// PendingOffers is the host target's offered-but-unmatched backlog.
	PendingOffers int `json:"pending_offers"`
	// ShedRecent counts overload rejections since the previous digest — a
	// rate signal, not a lifetime total, so balancers can react to pressure
	// that has already passed its peak.
	ShedRecent uint64 `json:"shed_recent"`
}

// Endpoint is one announced host: where to dial it, which scripts it
// serves, and its freshest load digest. Seq is the announcement sequence
// number, monotonic per origin; a record only supersedes another for the
// same Addr when its Seq is newer.
type Endpoint struct {
	Addr    string   `json:"addr"`
	Scripts []string `json:"scripts,omitempty"`
	Load    Load     `json:"load"`
	Seq     uint64   `json:"seq,omitempty"`
}

// Serves reports whether the endpoint serves the named script. An endpoint
// that lists no scripts is a wildcard (it serves anything); an empty script
// name matches every endpoint.
func (ep Endpoint) Serves(script string) bool {
	return script == "" || len(ep.Scripts) == 0 || slices.Contains(ep.Scripts, script)
}

// Registry is the pluggable discovery interface. Implementations must be
// safe for concurrent use.
type Registry interface {
	// Announce registers (or refreshes) this process's endpoint. load, when
	// non-nil, is consulted for the freshest digest each time the endpoint
	// is reported — at snapshot time (Static) or once per gossip round
	// (Gossip) — so load reporting piggybacks on traffic that already
	// flows. The returned stop function withdraws the announcement.
	Announce(ep Endpoint, load func() Load) (stop func())
	// Subscribe returns a channel of membership snapshots for the named
	// script ("" = all): the current snapshot is delivered promptly, then a
	// fresh one after every membership change (member added or evicted —
	// not on every load refresh; poll Snapshot for those). The channel is
	// coalescing: a slow consumer sees the latest snapshot, not every
	// intermediate one. cancel closes the channel.
	Subscribe(script string) (ch <-chan []Endpoint, cancel func())
	// Snapshot returns the endpoints currently serving the named script
	// ("" = all), sorted by address, with their freshest known loads.
	Snapshot(script string) []Endpoint
	// Close releases the registry's resources and closes all subscriptions.
	Close() error
}

// hub is the subscriber set of one registry: Subscribe's coalescing channels
// and the pushes that feed them. It owns no lock — it runs under its
// registry's, which is also what makes a snapshot and its delivery one step.
type hub struct {
	mu       sync.Locker                    // the registry's lock
	snapshot func(script string) []Endpoint // the registry's view, called with mu held
	subs     map[*subscription]struct{}
	closed   bool // the registry's too: it closes when its hub does
}

// subscription is one Subscribe caller: a coalescing channel of snapshots.
type subscription struct {
	script string
	ch     chan []Endpoint
}

func newHub(mu sync.Locker, snapshot func(string) []Endpoint) hub {
	return hub{mu: mu, snapshot: snapshot, subs: make(map[*subscription]struct{})}
}

// push delivers the current snapshot, replacing an undelivered one. mu is
// held, so the drain/send pair never races another push.
func (h *hub) push(sub *subscription) {
	select {
	case <-sub.ch:
	default:
	}
	sub.ch <- h.snapshot(sub.script)
}

// Subscribe implements Registry for the type that embeds the hub.
func (h *hub) Subscribe(script string) (<-chan []Endpoint, func()) {
	sub := &subscription{script: script, ch: make(chan []Endpoint, 1)}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(sub.ch)
		return sub.ch, func() {}
	}
	h.subs[sub] = struct{}{}
	h.push(sub)
	return sub.ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[sub]; ok { // not yet cancelled, nor closed
			delete(h.subs, sub)
			close(sub.ch)
		}
	}
}

// notify pushes a fresh snapshot to every subscriber; mu is held.
func (h *hub) notify() {
	for sub := range h.subs {
		h.push(sub)
	}
}

// close ends every subscription and refuses new ones; mu is held.
func (h *hub) close() {
	h.closed = true
	for sub := range h.subs {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// Static is the fixed-membership registry: the member set changes only via
// Announce and (for file-backed registries) file reloads. Members announced
// in-process report live loads — Snapshot consults their load functions at
// call time — so an in-process fleet (tests, perfbench) gets fresh digests
// with zero background goroutines.
type Static struct {
	hub
	mu      sync.Mutex
	members map[string]*staticMember

	path string
	stop chan struct{}
	wg   sync.WaitGroup
}

type staticMember struct {
	ep       Endpoint
	load     func() Load
	fromFile bool
}

// NewStatic returns a registry holding the given endpoints. More can be
// announced later.
func NewStatic(eps ...Endpoint) *Static {
	s := &Static{members: make(map[string]*staticMember, len(eps))}
	s.hub = newHub(&s.mu, s.snapshotLocked)
	for _, ep := range eps {
		s.members[ep.Addr] = &staticMember{ep: ep}
		membersAdded.Inc()
	}
	return s
}

// NewStaticFile returns a registry loaded from a plain text file, one
// member per line:
//
//	# comment
//	127.0.0.1:7101 star_broadcast,buffer
//	127.0.0.1:7102
//
// The optional comma-separated script list restricts what the member
// serves; a bare address serves anything. When poll > 0 the file is
// re-read on that cadence and membership changes notify subscribers, so
// editing the file reconfigures a running fleet's clients.
func NewStaticFile(path string, poll time.Duration) (*Static, error) {
	eps, err := ParseStaticFile(path)
	if err != nil {
		return nil, err
	}
	s := NewStatic()
	s.path = path
	s.applyFile(eps)
	if poll > 0 {
		s.stop = make(chan struct{})
		s.wg.Add(1)
		go s.pollFile(poll)
	}
	return s, nil
}

// ParseStaticFile parses the static registry file format.
func ParseStaticFile(path string) ([]Endpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var eps []Endpoint
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) > 2 {
			return nil, fmt.Errorf("registry: %s:%d: want \"addr [script,script...]\", got %q", path, line, text)
		}
		ep := Endpoint{Addr: fields[0]}
		if len(fields) == 2 {
			for _, s := range strings.Split(fields[1], ",") {
				if s = strings.TrimSpace(s); s != "" {
					ep.Scripts = append(ep.Scripts, s)
				}
			}
		}
		eps = append(eps, ep)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return eps, nil
}

// pollFile re-reads the backing file on a cadence, swapping the file-born
// membership when it changes. In-process announcements are never touched.
func (s *Static) pollFile(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			eps, err := ParseStaticFile(s.path)
			if err != nil {
				continue // a transient read error keeps the last good view
			}
			s.applyFile(eps)
		}
	}
}

// applyFile swaps the file-born members for eps, notifying on change.
func (s *Static) applyFile(eps []Endpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	changed := false
	seen := make(map[string]bool, len(eps))
	for _, ep := range eps {
		seen[ep.Addr] = true
		m := s.members[ep.Addr]
		switch {
		case m == nil:
			s.members[ep.Addr] = &staticMember{ep: ep, fromFile: true}
			membersAdded.Inc()
			changed = true
		case m.fromFile && !slices.Equal(m.ep.Scripts, ep.Scripts):
			m.ep.Scripts = ep.Scripts
			changed = true
		}
	}
	for addr, m := range s.members {
		if m.fromFile && !seen[addr] {
			delete(s.members, addr)
			membersEvicted.Inc()
			changed = true
		}
	}
	if changed {
		s.notify()
	}
}

// Announce implements Registry. The endpoint replaces any prior member at
// the same address; stop withdraws it.
func (s *Static) Announce(ep Endpoint, load func() Load) (stop func()) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return func() {}
	}
	if s.members[ep.Addr] == nil {
		membersAdded.Inc()
	}
	m := &staticMember{ep: ep, load: load}
	s.members[ep.Addr] = m
	s.notify()
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		// Only withdraw the member this Announce installed: a stale stop()
		// from a superseded announcement (or a second call of this one) must
		// not take down the newer live one at the same address.
		if s.members[ep.Addr] == m {
			delete(s.members, ep.Addr)
			membersEvicted.Inc()
			s.notify()
		}
	}
}

// Snapshot implements Registry.
func (s *Static) Snapshot(script string) []Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(script)
}

func (s *Static) snapshotLocked(script string) []Endpoint {
	eps := make([]Endpoint, 0, len(s.members))
	for _, m := range s.members {
		if !m.ep.Serves(script) {
			continue
		}
		ep := m.ep
		if m.load != nil {
			ep.Load = m.load()
		}
		eps = append(eps, ep)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].Addr < eps[j].Addr })
	return eps
}

// Close implements Registry.
func (s *Static) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.hub.close()
	s.mu.Unlock()
	if s.stop != nil {
		close(s.stop)
	}
	s.wg.Wait()
	return nil
}

var _ Registry = (*Static)(nil)
