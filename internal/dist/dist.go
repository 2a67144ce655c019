// Package dist implements the research direction the paper names after its
// CSP translation: "One of the major directions of future research is to
// discover distributed algorithms to achieve such multiple synchronization
// based on a generalization of the current distributed algorithms for
// binary handshaking."
//
// Two multiway-enrollment synchronizers are provided behind one interface:
//
//   - Central: the paper's supervisor shape — every enroller offers to one
//     coordinator, which detects the full house and releases everyone. Few
//     serial hops per round, but the coordinator carries the whole message
//     load (and is an extra process, against the paper's design goal).
//   - Ring: a decentralized token protocol. Each role is managed by its own
//     node on a unidirectional ring; a token collects enrollment counts and,
//     once it has observed all n roles enrolled, converts into a release
//     lap. No node handles more than O(1) messages per round — at the cost
//     of O(n) serial hops.
//
// Both run over the rendezvous fabric with per-node message counters, so
// experiment E13 can compare message totals, per-node load, and latency.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/scriptabs/goscript/internal/rendezvous"
)

// ErrClosed reports an Enroll on a closed synchronizer.
var ErrClosed = errors.New("dist: synchronizer closed")

// Stats reports a synchronizer's traffic after some rounds.
type Stats struct {
	// Rounds is the number of completed synchronization rounds
	// (performances).
	Rounds int
	// Messages is the total number of point-to-point messages.
	Messages int
	// MaxNodeLoad is the largest number of messages any single node sent
	// plus received (the coordinator bottleneck measure).
	MaxNodeLoad int
}

// PerRound returns the average messages per completed round.
func (s Stats) PerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.Messages) / float64(s.Rounds)
}

// Synchronizer is an n-party enrollment barrier: Enroll(i) blocks until all
// n roles have enrolled in the current round, then everyone is released and
// the next round may form (the successive-activations rule).
type Synchronizer interface {
	// Enroll blocks the caller as role i (1-based) until the round commits,
	// and returns the committed round number.
	Enroll(ctx context.Context, i int) (int, error)
	// Stats returns traffic counters.
	Stats() Stats
	// Close shuts the synchronizer down; outstanding and future Enrolls
	// fail.
	Close()
}

// counter tracks per-node message traffic.
type counter struct {
	mu     sync.Mutex
	total  int
	byNode map[string]int
}

func (c *counter) note(from, to rendezvous.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	c.byNode[string(from)]++
	c.byNode[string(to)]++
}

func (c *counter) snapshot(rounds int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Rounds: rounds, Messages: c.total}
	for _, n := range c.byNode {
		if n > s.MaxNodeLoad {
			s.MaxNodeLoad = n
		}
	}
	return s
}

// shell is what the three synchronizers share: the fabric their node
// processes talk over and its traffic counter, the hand-off by which role i's
// enroller reaches node i and waits for its release, the round count, and a
// Close that stops the processes once. Ring and Tree differ from it only in
// the node function they start; Central starts its coordinator instead and
// enrolls over the fabric.
type shell struct {
	n       int
	fabric  *rendezvous.Fabric
	counter counter
	arrive  []chan chan int // arrive[i]: role i's enroller hands node i its release channel
	stop    chan struct{}   // closed by Close
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu     sync.Mutex
	rounds int
	closed bool
}

// start readies s for n roles (at least one) and runs node(ctx, i) for i in
// 1..nodes until Close.
func (s *shell) start(n, nodes int, node func(ctx context.Context, i int)) {
	ctx, cancel := context.WithCancel(context.Background())
	s.n = max(n, 1)
	s.fabric = rendezvous.New()
	s.counter.byNode = make(map[string]int)
	s.arrive = make([]chan chan int, s.n+1)
	for i := range s.arrive {
		s.arrive[i] = make(chan chan int)
	}
	s.stop = make(chan struct{})
	s.cancel = cancel
	s.wg.Add(nodes)
	for i := 1; i <= nodes; i++ {
		go func() {
			defer s.wg.Done()
			node(ctx, i)
		}()
	}
}

// checkRole rejects a role index outside 1..n.
func (s *shell) checkRole(i int) error {
	if i < 1 || i > s.n {
		return fmt.Errorf("dist: role %d out of range 1..%d", i, s.n)
	}
	return nil
}

// awaitLocal is node i waiting for its role's enroller; nil means Close.
func (s *shell) awaitLocal(ctx context.Context, i int) chan int {
	select {
	case w := <-s.arrive[i]:
		return w
	case <-ctx.Done():
		return nil
	}
}

// setRounds records that round has committed.
func (s *shell) setRounds(round int) {
	s.mu.Lock()
	s.rounds = max(s.rounds, round)
	s.mu.Unlock()
}

// Enroll implements Synchronizer: hand node i a release channel, then wait on
// it.
func (s *shell) Enroll(ctx context.Context, i int) (int, error) {
	if err := s.checkRole(i); err != nil {
		return 0, err
	}
	release := make(chan int, 1)
	select {
	case s.arrive[i] <- release:
	case <-s.stop:
		return 0, ErrClosed
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	select {
	case round := <-release:
		return round, nil
	case <-s.stop:
		return 0, ErrClosed
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Stats implements Synchronizer.
func (s *shell) Stats() Stats {
	s.mu.Lock()
	rounds := s.rounds
	s.mu.Unlock()
	return s.counter.snapshot(rounds)
}

// Close implements Synchronizer.
func (s *shell) Close() {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if closed {
		return
	}
	close(s.stop)
	s.cancel()
	s.fabric.Close()
	s.wg.Wait()
}

// ---------------------------------------------------------------------------
// Central coordinator

// Central is the supervisor-shaped synchronizer.
type Central struct{ shell }

const coordAddr rendezvous.Addr = "coordinator"

// NewCentral creates a central synchronizer for n roles and starts its
// coordinator process.
func NewCentral(n int) *Central {
	c := &Central{}
	c.start(n, 1, func(ctx context.Context, _ int) { c.coordinate(ctx) })
	return c
}

// coordinate is the coordinator process: collect n offers, release n
// enrollers, repeat.
func (c *Central) coordinate(ctx context.Context) {
	waiting := make([]rendezvous.Addr, 0, c.n)
	for round := 1; ; round++ {
		waiting = waiting[:0]
		for len(waiting) < c.n {
			out, err := c.fabric.RecvAny(ctx, coordAddr)
			if err != nil {
				return
			}
			c.counter.note(out.Peer, coordAddr)
			waiting = append(waiting, out.Peer)
		}
		c.setRounds(round)
		for _, peer := range waiting {
			// Count before sending: the released enroller may read Stats
			// before this goroutine is rescheduled.
			c.counter.note(coordAddr, peer)
			if err := c.fabric.Send(ctx, coordAddr, peer, "release", round); err != nil {
				return
			}
		}
	}
}

func nodeAddr(i int) rendezvous.Addr {
	return rendezvous.Addr(fmt.Sprintf("node[%d]", i))
}

// Enroll implements Synchronizer: the enroller itself offers to the
// coordinator and awaits its release, both over the fabric.
func (c *Central) Enroll(ctx context.Context, i int) (int, error) {
	if err := c.checkRole(i); err != nil {
		return 0, err
	}
	me := nodeAddr(i)
	if err := c.fabric.Send(ctx, me, coordAddr, "offer", i); err != nil {
		return 0, fmt.Errorf("dist: offer: %w", err)
	}
	v, err := c.fabric.Recv(ctx, me, coordAddr, "release")
	if err != nil {
		return 0, fmt.Errorf("dist: await release: %w", err)
	}
	round, _ := v.(int)
	return round, nil
}

// ---------------------------------------------------------------------------
// Ring token

// token is the circulating state of the ring protocol.
type token struct {
	round     int
	phase     tokenPhase
	count     int // collect: roles known enrolled this round
	initiator int // release: node that converted the token
}

type tokenPhase int

const (
	phaseCollect tokenPhase = iota + 1
	phaseRelease
)

// Ring is the decentralized synchronizer: node i manages role i's
// enrollments locally and participates in the token protocol.
type Ring struct{ shell }

// NewRing creates a ring synchronizer for n roles and starts its node
// processes. The token circulates only while work is outstanding: a node
// holds the token until its local role has enrolled, so an idle ring sends
// no messages.
func NewRing(n int) *Ring {
	r := &Ring{}
	r.start(n, max(n, 1), r.node)
	return r
}

// node runs role i's manager. Protocol per round:
//
//	collect phase: wait for the local enrollment, add it to the token's
//	count, pass the token on. The node that completes the count (count==n)
//	converts the token to the release phase and remembers itself as the
//	initiator.
//
//	release phase: release the local enroller with the round number and
//	pass the token on; when the token returns to the initiator, it starts
//	the next round's collect phase.
func (r *Ring) node(ctx context.Context, i int) {
	me, prev, next := nodeAddr(i), nodeAddr((i+r.n-2)%r.n+1), nodeAddr(i%r.n+1)

	var waiter chan int // local enroller awaiting release this round
	releaseLocal := func(round int) {
		if waiter != nil {
			waiter <- round
			waiter = nil
		}
	}

	if r.n == 1 {
		// Single node: every round is local, no messages at all.
		for round := 1; ; round++ {
			if waiter = r.awaitLocal(ctx, i); waiter == nil {
				return
			}
			r.setRounds(round)
			releaseLocal(round)
		}
	}

	tk := token{round: 1, phase: phaseCollect}
	holding := i == 1 // node 1 starts with the token
	for {
		if !holding {
			v, err := r.fabric.Recv(ctx, me, prev, "token")
			if err != nil {
				return
			}
			tk = v.(token)
		}
		switch tk.phase {
		case phaseCollect:
			// Hold the token until the local role enrolls: the ring is
			// quiet unless enrollments are outstanding.
			if waiter == nil {
				if waiter = r.awaitLocal(ctx, i); waiter == nil {
					return
				}
			}
			tk.count++
			if tk.count == r.n {
				tk.phase = phaseRelease
				tk.initiator = i
				r.setRounds(tk.round)
				releaseLocal(tk.round)
			}
		case phaseRelease:
			if tk.initiator == i {
				// Full release lap complete: start the next round.
				tk = token{round: tk.round + 1, phase: phaseCollect}
				holding = true
				continue
			}
			releaseLocal(tk.round)
		}
		r.counter.note(me, next)
		if err := r.fabric.Send(ctx, me, next, "token", tk); err != nil {
			return
		}
		holding = false
	}
}

var (
	_ Synchronizer = (*Central)(nil)
	_ Synchronizer = (*Ring)(nil)
)
