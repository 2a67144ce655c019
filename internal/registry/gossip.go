package registry

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/scriptabs/goscript/internal/metrics"
)

var (
	gossipRounds   = metrics.Get(metrics.RegistryGossipRounds)
	gossipSent     = metrics.Get(metrics.RegistryGossipSent)
	gossipRecv     = metrics.Get(metrics.RegistryGossipRecv)
	gossipBad      = metrics.Get(metrics.RegistryGossipBad)
	gossipOversize = metrics.Get(metrics.RegistryGossipOversize)
)

// GossipFaults lets the chaos injector perturb the gossip plane: dropped,
// delayed, or duplicated announcement packets, and stale load digests
// (a round that re-reports the previous digest instead of reading a fresh
// one). All methods must be safe for concurrent use; a nil interface
// injects nothing.
type GossipFaults interface {
	// DropGossip reports whether to drop an outgoing gossip packet.
	DropGossip() bool
	// DelayGossip returns how long to delay an outgoing packet (0 = none).
	DelayGossip() time.Duration
	// DupGossip reports whether to send an outgoing packet twice.
	DupGossip() bool
	// StaleLoad reports whether this round should re-announce the previous
	// load digest instead of reading a fresh one.
	StaleLoad() bool
}

// GossipConfig configures a gossip node.
type GossipConfig struct {
	// Bind is the UDP address to listen on ("127.0.0.1:0" picks a port).
	Bind string
	// Seeds are gossip addresses of peers to contact on every round. A
	// node with no seeds waits to be contacted.
	Seeds []string
	// Interval is the round cadence (default 500ms). Each round advances
	// this node's announcement Seq and pushes the full membership digest
	// to Fanout peers — the round is both heartbeat and load report.
	Interval time.Duration
	// EvictAfter is how long a member's Seq may stagnate before it is
	// evicted (default 10×Interval). Relayed copies of an old record do
	// not refresh the clock: only the origin advancing its Seq does.
	EvictAfter time.Duration
	// Fanout is how many peers each round pushes to (default 3).
	Fanout int
	// Seed seeds peer selection; 0 derives one from the clock.
	Seed int64
	// Secret, when non-empty, authenticates gossip datagrams: every
	// outgoing packet is prefixed with an HMAC-SHA256 tag over its payload,
	// and inbound packets whose tag is missing or wrong are dropped
	// (counted in registry_gossip_packets_bad_total). All nodes of a fleet
	// must share the secret. Without one, anyone who can reach the gossip
	// bind can inject membership — acceptable on loopback or a trusted
	// network segment only; see the trust model in DESIGN.md.
	Secret []byte
	// Faults optionally injects gossip-plane faults (chaos testing).
	Faults GossipFaults
	// Logf optionally logs membership changes and decode errors.
	Logf func(format string, args ...any)
}

// Gossip is the coordination-free registry: every node converges on the
// fleet's membership by exchanging full-state digests over periodic UDP
// rounds. Records are versioned by an origin-monotonic Seq so stale relays
// never regress a fresher view, and a member whose Seq stops advancing for
// EvictAfter is dropped — the heartbeat timeout. Evicted records leave a
// soft tombstone (addr → last seen Seq) so a slower peer relaying the dead
// record back cannot resurrect it; a genuinely restarted host wins because
// its Seq restarts above its previous value (clock-seeded).
type Gossip struct {
	hub
	cfg  GossipConfig
	pc   net.PacketConn
	addr string

	mu      sync.Mutex
	self    Endpoint
	load    func() Load
	has     bool // an Announce is active
	gen     int  // which Announce: its stop withdraws no other
	lastLd  Load // previous digest, re-reported under the StaleLoad fault
	members map[string]*gossipMember
	tombs   map[string]tombstone
	peers   map[string]time.Time // gossip addrs → last heard (seeds live in cfg)
	rng     *rand.Rand

	stop chan struct{}
	wg   sync.WaitGroup
}

type gossipMember struct {
	ep    Endpoint
	heard time.Time // last time ep.Seq advanced
}

type tombstone struct {
	seq uint64
	at  time.Time
}

// gossipMsg is the wire format: one JSON datagram per push carrying the
// sender's gossip address, the gossip addresses it knows (peer exchange),
// and its full membership view.
type gossipMsg struct {
	From    string     `json:"from"`
	Peers   []string   `json:"peers,omitempty"`
	Members []Endpoint `json:"members,omitempty"`
}

// NewGossip binds the UDP socket and starts the round and receive loops.
func NewGossip(cfg GossipConfig) (*Gossip, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 10 * cfg.Interval
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 3
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	bind := cfg.Bind
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	pc, err := net.ListenPacket("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("registry: gossip bind %s: %w", bind, err)
	}
	g := &Gossip{
		cfg:     cfg,
		pc:      pc,
		addr:    pc.LocalAddr().String(),
		members: make(map[string]*gossipMember),
		tombs:   make(map[string]tombstone),
		peers:   make(map[string]time.Time),
		rng:     rand.New(rand.NewSource(seed)),
		stop:    make(chan struct{}),
	}
	g.hub = newHub(&g.mu, g.snapshotLocked)
	g.wg.Add(2)
	go g.receiveLoop()
	go g.roundLoop()
	return g, nil
}

// Addr returns the resolved gossip address (useful with Bind "…:0").
func (g *Gossip) Addr() string { return g.addr }

// Announce implements Registry. The node starts reporting ep (with a fresh
// load digest from load, when non-nil) on every round; stop withdraws it
// locally — leaving a tombstone so peers relaying the stale record cannot
// re-add it — and lets the fleet evict it by heartbeat timeout. Seq is
// seeded from the wall clock so a restarted host supersedes its own
// tombstones.
func (g *Gossip) Announce(ep Endpoint, load func() Load) (stop func()) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return func() {}
	}
	if ep.Seq == 0 {
		ep.Seq = uint64(time.Now().UnixNano())
	}
	g.self = ep
	g.load = load
	g.has = true
	g.gen++
	gen := g.gen
	delete(g.tombs, ep.Addr) // a re-announcement supersedes our own withdrawal
	g.refreshSelfLocked(time.Now())
	g.notify()
	g.mu.Unlock()
	g.sendRound() // propagate without waiting for the next tick
	return func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		// Only the live announcement is this stop's to withdraw: a stale
		// stop() from a superseded Announce (or a second call of this one)
		// must not take down what the node reports now.
		if !g.has || g.gen != gen {
			return
		}
		g.has = false
		g.load = nil
		// Tombstone our own final Seq: with has false, merge no longer
		// special-cases our address, so without this a peer relaying the
		// stale self-record would re-add the withdrawn host locally until
		// fleet-wide heartbeat eviction. A later re-Announce supersedes the
		// tombstone (clock-seeded Seq).
		g.tombs[g.self.Addr] = tombstone{seq: g.self.Seq, at: time.Now()}
		if g.members[g.self.Addr] != nil {
			delete(g.members, g.self.Addr)
			membersEvicted.Inc()
			g.notify()
		}
	}
}

// refreshSelfLocked advances our announcement: Seq++ and a fresh (or, under
// the StaleLoad fault, deliberately stale) load digest, merged into the
// local membership like any other record.
func (g *Gossip) refreshSelfLocked(now time.Time) {
	if !g.has {
		return
	}
	g.self.Seq++
	if g.load != nil {
		if g.cfg.Faults != nil && g.cfg.Faults.StaleLoad() {
			g.self.Load = g.lastLd
		} else {
			g.self.Load = g.load()
			g.lastLd = g.self.Load
		}
	}
	m := g.members[g.self.Addr]
	if m == nil {
		m = &gossipMember{}
		g.members[g.self.Addr] = m
		membersAdded.Inc()
	}
	m.ep = g.self
	m.heard = now
}

// Snapshot implements Registry.
func (g *Gossip) Snapshot(script string) []Endpoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.snapshotLocked(script)
}

func (g *Gossip) snapshotLocked(script string) []Endpoint {
	eps := make([]Endpoint, 0, len(g.members))
	for _, m := range g.members {
		if m.ep.Serves(script) {
			eps = append(eps, m.ep)
		}
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].Addr < eps[j].Addr })
	return eps
}

// Close implements Registry.
func (g *Gossip) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.hub.close()
	g.mu.Unlock()
	close(g.stop)
	g.pc.Close()
	g.wg.Wait()
	return nil
}

// roundLoop drives the periodic push rounds.
func (g *Gossip) roundLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.sendRound()
		}
	}
}

// maxGossipDatagram bounds one marshaled digest datagram. The receive
// buffer is 64KiB and the UDP payload ceiling ~65507 bytes; staying well
// under both keeps packets from truncating or failing to send as the
// fleet grows. A digest that would exceed the bound is split across
// datagrams — merge folds records independently, so any subset of chunks
// converges the receiver.
const maxGossipDatagram = 48 << 10

// sendRound advances our own record, evicts stagnant members, and pushes
// the full digest — split across datagrams when large — to Fanout peers.
func (g *Gossip) sendRound() {
	now := time.Now()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	gossipRounds.Inc()
	g.refreshSelfLocked(now)
	g.evictLocked(now)
	peers := g.knownPeersLocked()
	members := make([]Endpoint, 0, len(g.members))
	for _, m := range g.members {
		members = append(members, m.ep)
	}
	targets := g.pickTargetsLocked()
	g.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	for _, buf := range g.packDigest(peers, members) {
		for _, t := range targets {
			g.sendTo(t, buf)
		}
	}
}

// packDigest marshals the membership into one or more datagrams, each a
// self-contained gossipMsg under maxGossipDatagram (before the optional
// HMAC tag). The peer exchange rides only the first datagram. A single
// record that alone exceeds the bound is counted, logged, and sent anyway
// (best effort — it may not survive the network).
func (g *Gossip) packDigest(peers []string, members []Endpoint) [][]byte {
	hdr, err := json.Marshal(gossipMsg{From: g.addr, Peers: peers})
	if err != nil {
		return nil
	}
	// Per-chunk envelope overhead: the header fields plus `"members":[...]`.
	overhead := len(hdr) + len(`,"members":[]`)
	var out [][]byte
	var chunk []Endpoint
	size := overhead
	flush := func() {
		if len(chunk) == 0 {
			return
		}
		msg := gossipMsg{From: g.addr, Members: chunk}
		if len(out) == 0 {
			msg.Peers = peers
		}
		if buf, err := json.Marshal(msg); err == nil {
			out = append(out, buf)
		}
		chunk, size = nil, overhead
	}
	for _, ep := range members {
		b, err := json.Marshal(ep)
		if err != nil {
			continue
		}
		if len(b)+1 > maxGossipDatagram-overhead {
			// One record alone busts the bound: isolate it in its own
			// datagram so it cannot take healthy records down with it.
			gossipOversize.Inc()
			g.logf("registry: gossip %s: member record %s marshals to %d bytes, past the %d-byte datagram bound", g.addr, ep.Addr, len(b), maxGossipDatagram)
			flush()
			chunk = []Endpoint{ep}
			flush()
			continue
		}
		if size+len(b)+1 > maxGossipDatagram {
			flush()
		}
		chunk = append(chunk, ep)
		size += len(b) + 1
	}
	flush()
	if len(out) == 0 {
		out = append(out, hdr) // no members: still gossip the peer exchange
	}
	return out
}

// seal prefixes the packet with its HMAC-SHA256 tag when a Secret is
// configured; open verifies and strips it, reporting whether the packet is
// acceptable.
func (g *Gossip) seal(buf []byte) []byte {
	if len(g.cfg.Secret) == 0 {
		return buf
	}
	return append(g.tag(buf), buf...)
}

func (g *Gossip) open(pkt []byte) ([]byte, bool) {
	if len(g.cfg.Secret) == 0 {
		return pkt, true
	}
	if len(pkt) < sha256.Size || !hmac.Equal(g.tag(pkt[sha256.Size:]), pkt[:sha256.Size]) {
		return nil, false
	}
	return pkt[sha256.Size:], true
}

func (g *Gossip) tag(payload []byte) []byte {
	mac := hmac.New(sha256.New, g.cfg.Secret)
	mac.Write(payload)
	return mac.Sum(nil)
}

// evictLocked drops members whose Seq has stagnated past EvictAfter,
// leaving tombstones, and prunes stale learned peers and old tombstones.
func (g *Gossip) evictLocked(now time.Time) {
	changed := false
	for addr, m := range g.members {
		if g.has && addr == g.self.Addr {
			continue
		}
		if now.Sub(m.heard) > g.cfg.EvictAfter {
			g.tombs[addr] = tombstone{seq: m.ep.Seq, at: now}
			delete(g.members, addr)
			membersEvicted.Inc()
			changed = true
			g.logf("registry: gossip %s evicted member %s (heartbeat timeout)", g.addr, addr)
		}
	}
	for addr, t := range g.tombs {
		if now.Sub(t.at) > 4*g.cfg.EvictAfter {
			delete(g.tombs, addr)
		}
	}
	for addr, heard := range g.peers {
		if now.Sub(heard) > 4*g.cfg.EvictAfter {
			delete(g.peers, addr)
		}
	}
	if changed {
		g.notify()
	}
}

// knownPeersLocked returns the gossip addresses to advertise (capped so
// digests stay well under a datagram).
func (g *Gossip) knownPeersLocked() []string {
	peers := make([]string, 0, len(g.peers)+1)
	peers = append(peers, g.addr)
	for addr := range g.peers {
		if len(peers) >= 16 {
			break
		}
		peers = append(peers, addr)
	}
	return peers
}

// pickTargetsLocked chooses up to Fanout distinct peers (seeds ∪ learned).
func (g *Gossip) pickTargetsLocked() []string {
	set := make(map[string]struct{}, len(g.cfg.Seeds)+len(g.peers))
	for _, s := range g.cfg.Seeds {
		if s != "" && s != g.addr {
			set[s] = struct{}{}
		}
	}
	for addr := range g.peers {
		if addr != g.addr {
			set[addr] = struct{}{}
		}
	}
	all := make([]string, 0, len(set))
	for addr := range set {
		all = append(all, addr)
	}
	sort.Strings(all)
	g.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > g.cfg.Fanout {
		all = all[:g.cfg.Fanout]
	}
	return all
}

// sendTo writes one datagram — sealed when a Secret is configured —
// applying the injected gossip faults.
func (g *Gossip) sendTo(addr string, buf []byte) {
	udp, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return
	}
	f := g.cfg.Faults
	if f != nil && f.DropGossip() {
		return
	}
	sealed := g.seal(buf)
	write := func() {
		if _, err := g.pc.WriteTo(sealed, udp); err == nil {
			gossipSent.Inc()
		}
	}
	if f != nil {
		if d := f.DelayGossip(); d > 0 {
			time.AfterFunc(d, write)
			if f.DupGossip() {
				time.AfterFunc(d, write)
			}
			return
		}
		if f.DupGossip() {
			write()
		}
	}
	write()
}

// receiveLoop feeds inbound datagrams to receive until the socket closes.
func (g *Gossip) receiveLoop() {
	defer g.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, src, err := g.pc.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		g.receive(buf[:n], src)
	}
}

// receive is everything done with one inbound datagram: authenticate it,
// decode it, merge it. Whatever fails, the datagram is counted and dropped.
func (g *Gossip) receive(pkt []byte, src net.Addr) {
	payload, ok := g.open(pkt)
	if !ok {
		gossipBad.Inc()
		g.logf("registry: gossip %s: unauthenticated packet from %v dropped", g.addr, src)
		return
	}
	var msg gossipMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		gossipBad.Inc()
		g.logf("registry: gossip %s: bad packet from %v: %v", g.addr, src, err)
		return
	}
	gossipRecv.Inc()
	g.merge(msg, src)
}

// merge folds a received digest into the local view: peers are learned for
// future rounds, and each member record is taken only when its Seq is newer
// than what we hold (and newer than any tombstone for that address). A
// record for our own announced address with a Seq at or above ours means a
// stale relay of a previous incarnation — we leapfrog it so our next round
// supersedes it everywhere.
func (g *Gossip) merge(msg gossipMsg, src net.Addr) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	from := msg.From
	if from == "" && src != nil {
		from = src.String()
	}
	if from != "" && from != g.addr {
		g.peers[from] = now
	}
	for _, p := range msg.Peers {
		if p == "" || p == g.addr {
			continue
		}
		if _, ok := g.peers[p]; !ok {
			g.peers[p] = now
		}
	}
	changed := false
	for _, ep := range msg.Members {
		if ep.Addr == "" {
			continue
		}
		if g.has && ep.Addr == g.self.Addr {
			if ep.Seq >= g.self.Seq {
				g.self.Seq = ep.Seq + 1
			}
			continue
		}
		if t, ok := g.tombs[ep.Addr]; ok {
			if ep.Seq <= t.seq {
				continue
			}
			delete(g.tombs, ep.Addr)
		}
		m := g.members[ep.Addr]
		switch {
		case m == nil:
			g.members[ep.Addr] = &gossipMember{ep: ep, heard: now}
			membersAdded.Inc()
			changed = true
			g.logf("registry: gossip %s learned member %s", g.addr, ep.Addr)
		case ep.Seq > m.ep.Seq:
			if !slices.Equal(m.ep.Scripts, ep.Scripts) {
				changed = true
			}
			m.ep = ep
			m.heard = now
		}
	}
	if changed {
		g.notify()
	}
}

func (g *Gossip) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

var _ Registry = (*Gossip)(nil)
