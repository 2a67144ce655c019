// Package rendezvous implements a synchronous message-passing fabric with
// CSP-style semantics: a send and a matching receive commit together and
// transfer a value, and a party may wait on a *generalized alternative* — a
// set of send and receive branches of which exactly one commits.
//
// The fabric is the substrate for three higher layers of this repository:
// the script runtime's inter-role communication (internal/core), the CSP
// host-language substrate (internal/csp), and the translations of scripts
// into host languages (internal/trans). Message *tags* exist so that the
// CSP translation of the paper (Figure 7) can use "unique, new message tags
// … assumed not to occur anywhere in the original program".
//
// # Two lanes
//
// The fabric runs two matching lanes (see DESIGN.md "Fabric internals"):
//
//   - The *fast lane* (fastlane.go) handles the overwhelmingly common case —
//     a directed, single-branch send or receive with a concrete (peer, tag) —
//     through per-endpoint-pair exchange cells in a sharded map, with no
//     global lock.
//   - The *slow lane* (this file) is the generalized matcher: every Do with
//     multiple branches, AnyPeer/AnyTag wildcards, termination, Abort and
//     WithRandomMatching goes through the single fabric lock, which makes
//     its decisions a legal linearization.
//
// An escalation protocol keeps the lanes linearizable with each other: the
// slow lane advertises the addresses it involves in per-address "hot" slots
// before it scans ("drains") the fast lane's cells, and a fast-lane
// operation re-checks those slots after parking, so for any pair of racing
// operations at least one side observes the other (a Dekker-style
// store/load handshake backed by Go's sequentially consistent atomics).
package rendezvous

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/scriptabs/goscript/internal/metrics"
)

// Always-on lane-hit counters: how many point operations committed in the
// lock-free fast lane versus falling through to the locked matcher. The
// fast/slow ratio is the fabric's key health signal (a slow-lane-heavy
// workload is paying the global lock on every op).
var (
	fastLaneOps = metrics.Get(metrics.FabricFastLaneOps)
	slowLaneOps = metrics.Get(metrics.FabricSlowLaneOps)
)

// Addr identifies a communication endpoint (a role instance, a CSP process,
// an Ada task, ...). Addresses need not be registered before use: an
// operation may target an address that has not yet posted anything, and will
// block until it does — this models the paper's "a role is delayed only if it
// attempts to communicate with an unfilled role".
type Addr string

// Tag labels a message. The zero tag is a valid, ordinary tag.
type Tag string

// Dir is the direction of a communication branch.
type Dir int

// Branch directions.
const (
	// DirSend offers a value to a peer.
	DirSend Dir = iota + 1
	// DirRecv requests a value from a peer.
	DirRecv
)

// String returns "send" or "recv".
func (d Dir) String() string {
	switch d {
	case DirSend:
		return "send"
	case DirRecv:
		return "recv"
	default:
		return fmt.Sprintf("dir(%d)", int(d))
	}
}

// Sentinel errors returned by fabric operations.
var (
	// ErrPeerTerminated reports that the peer address was terminated (its
	// process finished, or the role was marked absent) before or while the
	// operation waited. The script layer surfaces this as its distinguished
	// "role absent" value; the CSP layer uses it for the distributed
	// termination convention (a guard naming a terminated process fails).
	ErrPeerTerminated = errors.New("rendezvous: peer terminated")
	// ErrSelfTerminated reports that the operation's own address was
	// terminated, so it may not communicate.
	ErrSelfTerminated = errors.New("rendezvous: own address terminated")
	// ErrClosed reports that the fabric was closed.
	ErrClosed = errors.New("rendezvous: fabric closed")
	// ErrAborted is the default reason for Abort when none is supplied.
	ErrAborted = errors.New("rendezvous: fabric aborted")
	// ErrNoBranches reports a Do call with zero enabled branches, which can
	// never commit (CSP: an alternative command with all guards false fails).
	ErrNoBranches = errors.New("rendezvous: no enabled branches")
)

// Branch is one alternative of a generalized select. Peer and Tag restrict
// which counterpart operations can match:
//
//   - AnyPeer true accepts a counterpart from any address (Ada-style accept;
//     the extended CSP naming of Francez [2]). Only valid for DirRecv.
//   - AnyTag true accepts any tag. Only valid for DirRecv.
//
// For DirSend, Val carries the value to transfer; for DirRecv it is ignored.
type Branch struct {
	Dir     Dir
	Peer    Addr
	AnyPeer bool
	Tag     Tag
	AnyTag  bool
	Val     any
}

// Outcome describes the branch that committed in a Do call.
type Outcome struct {
	// Index is the position of the committed branch in the Do call's slice.
	Index int
	// Peer is the actual counterpart address (useful with AnyPeer).
	Peer Addr
	// Tag is the actual message tag (useful with AnyTag).
	Tag Tag
	// Val is the received value for a DirRecv branch; nil for DirSend.
	Val any
}

// Option configures a Fabric.
type Option func(*Fabric)

// WithRandomMatching makes the fabric choose uniformly (seeded) among
// matching candidates instead of the default first-posted order. This models
// CSP's lack of fairness; the default FIFO order models Ada's
// order-of-arrival service.
//
// Random matching is a whole-fabric property: the fast lane disables itself
// so every candidate set is assembled under the fabric lock, keeping the
// committed pairs a deterministic function of the seed.
func WithRandomMatching(seed int64) Option {
	return func(f *Fabric) { f.rng = rand.New(rand.NewSource(seed)) }
}

// WithoutFastPath forces every operation through the slow (locked) lane.
// Used by benchmarks as the baseline the fast lane is measured against, and
// by differential tests asserting the two lanes commit the same pairs.
func WithoutFastPath() Option {
	return func(f *Fabric) { f.noFast = true }
}

// Sizing of the fast-lane structures. Both are powers of two so the index
// is a mask. Hot slots outnumber shards because a collision there causes a
// (correct but slower) escalation, while a shard collision only shares a
// short-lived mutex.
const (
	numShards = 64
	numHot    = 256
)

// Fabric is a synchronous rendezvous domain. Create one per communication
// scope (one per script performance, one per CSP parallel command, ...).
type Fabric struct {
	mu      sync.Mutex
	closed  bool
	aborted error      // non-nil once Abort was called; the failure reason
	rng     *rand.Rand // nil = FIFO matching
	noFast  bool       // WithoutFastPath

	seq atomic.Uint64 // post order, for FIFO matching (shared by both lanes)
	// The slow lane's two indexes, both in swap-delete order and both keeping
	// an emptied list's storage (and key) until Reset: an owner that posts one
	// alternative after another appends into the same backing array.
	byOwner    map[Addr][]*op // pending slow-lane ops owned by addr
	sendersTo  map[Addr][]*op // pending slow-lane sends targeting addr
	terminated map[Addr]bool

	// Fast-lane state. fastOK gates the lane as a whole (false when closed,
	// aborted, random-matching, or WithoutFastPath). hot[i] counts reasons
	// address-slot i must not be handled by the fast lane: pending slow-lane
	// groups owned by an address hashing there, in-progress slow-lane posting
	// passes, and terminated addresses (a permanent increment until Reset).
	// parked counts ops currently waiting in exchange cells, letting the
	// sweeps and drains skip the shards entirely when it is zero.
	fastOK atomic.Bool
	parked atomic.Int64
	// touched has bit i set once an op has parked in shard i since Reset —
	// cells gain keys nowhere else — so Reset visits only those shards.
	touched atomic.Uint64
	hot     [numHot]atomic.Int64
	// parkedAt[i] counts parked ops whose cell names an address hashing to
	// slot i (both endpoints counted). Terminate and the waiting/termination
	// probes consult it to skip the all-shard sweep when the address in
	// question has nothing parked — the common case while a scatter is still
	// in flight and unrelated roles finish.
	parkedAt [numHot]atomic.Int64
	shards   [numShards]shard
	faults   FastFaults
}

// New creates an empty fabric.
func New(opts ...Option) *Fabric {
	f := &Fabric{
		byOwner:    make(map[Addr][]*op),
		sendersTo:  make(map[Addr][]*op),
		terminated: make(map[Addr]bool),
	}
	for _, o := range opts {
		o(f)
	}
	for i := range f.shards {
		f.shards[i].cells = make(map[cellKey][]*op)
	}
	f.fastOK.Store(!f.noFast && f.rng == nil)
	return f
}

// group is the commitment unit: all ops of one Do call share a group, and at
// most one of them transfers. Its state is claimed exactly once — by a
// commit, a failure, or a withdrawal — with a CAS, which is what lets the
// two lanes race safely for the same operation.
type group struct {
	state atomic.Int32 // 0 = pending; 1 = claimed
	res   chan result  // buffered 1; receives the single outcome or failure

	// Slow-lane residency, guarded by the fabric lock: the ops of this group
	// currently posted in the matcher, and the hot slot armed while any are
	// (-1 when none). A fast-parked op's group has empty ops until drained.
	ops    []*op
	hotIdx int
}

// result is what a group's owner receives: the committed outcome, or the
// failure reason. A claimed group gets exactly one.
type result struct {
	out Outcome
	err error
}

// claim atomically claims the group; exactly one caller wins.
func (g *group) claim() bool { return g.state.CompareAndSwap(0, 1) }

// claimed reports whether the group has been claimed.
func (g *group) claimed() bool { return g.state.Load() != 0 }

type op struct {
	g      *group
	owner  Addr
	branch Branch
	index  int
	seq    uint64
	// ownerIdx is this op's position in byOwner[owner] and, for a send,
	// sendIdx its position in sendersTo[peer], both maintained by swap-delete
	// so withdrawal is O(1) instead of a slice filter.
	ownerIdx, sendIdx int
}

// Send offers value v to peer with the given tag and blocks until a matching
// receive commits, ctx is done, or the peer terminates. It enters the fast
// lane directly — when the handoff commits there, no branch slice or group
// is ever allocated.
func (f *Fabric) Send(ctx context.Context, owner, peer Addr, tag Tag, v any) error {
	br := Branch{Dir: DirSend, Peer: peer, Tag: tag, Val: v}
	if _, handled, err := f.fastPoint(ctx, owner, br); handled {
		fastLaneOps.Inc()
		return err
	}
	_, err := f.doSlow(ctx, owner, []Branch{br})
	return err
}

// Recv requests a value from peer with the given tag and blocks until a
// matching send commits.
func (f *Fabric) Recv(ctx context.Context, owner, peer Addr, tag Tag) (any, error) {
	br := Branch{Dir: DirRecv, Peer: peer, Tag: tag}
	out, handled, err := f.fastPoint(ctx, owner, br)
	if handled {
		fastLaneOps.Inc()
	} else {
		out, err = f.doSlow(ctx, owner, []Branch{br})
	}
	if err != nil {
		return nil, err
	}
	return out.Val, nil
}

// RecvAny receives the next message addressed to owner from any peer with
// any tag.
func (f *Fabric) RecvAny(ctx context.Context, owner Addr) (Outcome, error) {
	return f.Do(ctx, owner, []Branch{{Dir: DirRecv, AnyPeer: true, AnyTag: true}})
}

// Do posts the given branches as one generalized alternative and blocks
// until exactly one commits. It returns the outcome of the committed branch.
//
// A single directed branch — the common point-to-point case — is routed
// through the fast lane when it is eligible; everything else goes through
// the locked matcher.
//
// If every branch's peer is already terminated, Do fails with
// ErrPeerTerminated (so callers implementing CSP repetitive commands can
// treat it as loop exit). If some peers are live, terminated-peer branches
// are simply never matched.
func (f *Fabric) Do(ctx context.Context, owner Addr, branches []Branch) (Outcome, error) {
	if len(branches) == 0 {
		return Outcome{}, ErrNoBranches
	}
	if len(branches) == 1 {
		if out, handled, err := f.fastPoint(ctx, owner, branches[0]); handled {
			fastLaneOps.Inc()
			return out, err
		}
	}
	return f.doSlow(ctx, owner, branches)
}

// doSlow runs one alternative through the locked matcher on a pooled slot of
// its own, released once the outcome is in hand (see slot for why that is
// safe).
func (f *Fabric) doSlow(ctx context.Context, owner Addr, branches []Branch) (Outcome, error) {
	s := getSlot()
	out, err := f.awaitSlow(ctx, owner, branches, s, 0)
	s.release()
	return out, err
}

// awaitSlow posts the alternative through the locked matcher and blocks for
// the outcome. s is the caller's slot, its group unclaimed and none of its
// ops referenced by the fabric; fixedSeq, when non-zero, is a previously
// assigned post order to preserve (an op escalated from the fast lane keeps
// its place in the FIFO).
func (f *Fabric) awaitSlow(ctx context.Context, owner Addr, branches []Branch, s *slot, fixedSeq uint64) (Outcome, error) {
	slowLaneOps.Inc()
	// Entry guard: make the owner's address slot hot for the duration of the
	// posting pass, so a fast-lane op racing with us escalates instead of
	// parking invisibly (see the package comment's Dekker handshake).
	guard := hotIndex(owner)
	f.hot[guard].Add(1)
	wait, out, err := f.enqueueSlow(owner, branches, s, fixedSeq)
	f.hot[guard].Add(-1)
	if !wait {
		return out, err
	}

	g := &s.g
	select {
	case r := <-g.res:
		return r.out, r.err
	case <-ctx.Done():
		// Try to withdraw; we may lose the race with a committer.
		f.mu.Lock()
		if !g.claim() {
			f.mu.Unlock()
			r := <-g.res
			return r.out, r.err
		}
		f.removeGroupLocked(g)
		f.mu.Unlock()
		return Outcome{}, ctx.Err()
	}
}

// enqueueSlow validates, immediately matches or posts the branches under the
// fabric lock. It reports whether the caller must block for the outcome.
func (f *Fabric) enqueueSlow(owner Addr, branches []Branch, s *slot, fixedSeq uint64) (wait bool, out Outcome, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false, Outcome{}, ErrClosed
	}
	if f.aborted != nil {
		return false, Outcome{}, f.aborted
	}
	if f.terminated[owner] {
		return false, Outcome{}, ErrSelfTerminated
	}

	// Pull every fast-parked op these branches could match into the matcher,
	// so candidates are never split across the lanes.
	f.drainForLocked(owner, branches)

	g := &s.g
	if s.n != 0 {
		// An op escalated out of its cell hands its storage back — cleared
		// here, since release only clears what was handed out since.
		s.ops[0] = op{}
		s.n = 0
	}
	liveBranches := 0
	for i, br := range branches {
		if err := validateBranch(br); err != nil {
			f.removeGroupLocked(g)
			return false, Outcome{}, err
		}
		if !br.AnyPeer && f.terminated[br.Peer] {
			continue // dead branch; may still fail the whole call below
		}
		liveBranches++
		o := s.newOp(owner, br, i)
		if cand := f.findMatchLocked(o); cand != nil {
			f.commitLocked(o, cand)
			return false, (<-g.res).out, nil
		}
		if fixedSeq != 0 {
			o.seq = fixedSeq
		} else {
			o.seq = f.seq.Add(1)
		}
		f.postLocked(o)
	}
	if liveBranches == 0 {
		return false, Outcome{}, ErrPeerTerminated
	}
	return true, Outcome{}, nil
}

func validateBranch(br Branch) error {
	switch br.Dir {
	case DirSend:
		if br.AnyPeer {
			return errors.New("rendezvous: send branch cannot use AnyPeer")
		}
		if br.AnyTag {
			return errors.New("rendezvous: send branch cannot use AnyTag")
		}
	case DirRecv:
		// ok
	default:
		return fmt.Errorf("rendezvous: invalid branch direction %v", br.Dir)
	}
	if !br.AnyPeer && br.Peer == "" {
		return errors.New("rendezvous: branch peer address is empty")
	}
	return nil
}

// findMatchLocked scans pending ops for a counterpart to o. Candidates are
// chosen in FIFO post order, or uniformly at random with WithRandomMatching.
func (f *Fabric) findMatchLocked(o *op) *op {
	list := f.byOwner[o.branch.Peer]
	if o.branch.Dir == DirRecv && o.branch.AnyPeer {
		list = f.sendersTo[o.owner]
	}
	if f.rng != nil {
		return f.drawMatchLocked(o, list)
	}
	var best *op
	for _, p := range list {
		if (best == nil || p.seq < best.seq) && p.g != o.g && !p.g.claimed() && matches(o, p) {
			best = p
		}
	}
	return best
}

// drawMatchLocked is findMatchLocked under WithRandomMatching: a seeded draw
// among all of o's counterparts in list.
func (f *Fabric) drawMatchLocked(o *op, list []*op) *op {
	var candidates []*op
	for _, p := range list {
		if p.g != o.g && !p.g.claimed() && matches(o, p) {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	// Canonicalize by post order first: the indexes are in swap-delete order,
	// which would otherwise leak into the seeded draw and break per-seed
	// reproducibility.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].seq < candidates[j].seq })
	return candidates[f.rng.Intn(len(candidates))]
}

// matches reports whether ops a and b are complementary: one send, one recv,
// addresses and tags compatible. a and b are interchangeable.
func matches(a, b *op) bool {
	var snd, rcv *op
	switch {
	case a.branch.Dir == DirSend && b.branch.Dir == DirRecv:
		snd, rcv = a, b
	case a.branch.Dir == DirRecv && b.branch.Dir == DirSend:
		snd, rcv = b, a
	default:
		return false
	}
	if snd.branch.Peer != rcv.owner {
		return false
	}
	if !rcv.branch.AnyPeer && rcv.branch.Peer != snd.owner {
		return false
	}
	if !rcv.branch.AnyTag && rcv.branch.Tag != snd.branch.Tag {
		return false
	}
	return true
}

// commitLocked claims both groups, removes their posted siblings, and
// delivers outcomes to both parties.
func (f *Fabric) commitLocked(newOp, pending *op) {
	newOp.g.claim()
	pending.g.claim()
	f.removeGroupLocked(newOp.g)
	f.removeGroupLocked(pending.g)

	var snd, rcv *op
	if newOp.branch.Dir == DirSend {
		snd, rcv = newOp, pending
	} else {
		snd, rcv = pending, newOp
	}
	// Copy everything out of both ops before the first send: as soon as a
	// party has its result it may release its (pooled) slot for reuse.
	sndRes := result{out: Outcome{Index: snd.index, Peer: rcv.owner, Tag: snd.branch.Tag}}
	rcvRes := result{out: Outcome{Index: rcv.index, Peer: snd.owner, Tag: snd.branch.Tag, Val: snd.branch.Val}}
	sndG, rcvG := snd.g, rcv.g
	sndG.res <- sndRes
	rcvG.res <- rcvRes
}

// postLocked indexes o for matching and arms its group's hot slot so the
// fast lane escalates operations that could match ops of this group.
func (f *Fabric) postLocked(o *op) {
	g := o.g
	if g.hotIdx < 0 {
		g.hotIdx = hotIndex(o.owner)
		f.hot[g.hotIdx].Add(1)
	}
	g.ops = append(g.ops, o)
	list := f.byOwner[o.owner]
	o.ownerIdx = len(list)
	f.byOwner[o.owner] = append(list, o)
	if o.branch.Dir == DirSend {
		list := f.sendersTo[o.branch.Peer]
		o.sendIdx = len(list)
		f.sendersTo[o.branch.Peer] = append(list, o)
	}
}

// removeGroupLocked removes every posted op of g from the matching indexes
// (O(1) per op via the tracked indexes) and disarms g's hot slot.
func (f *Fabric) removeGroupLocked(g *group) {
	for _, o := range g.ops {
		f.removeOpLocked(o)
	}
	g.ops = g.ops[:0]
	if g.hotIdx >= 0 {
		f.hot[g.hotIdx].Add(-1)
		g.hotIdx = -1
	}
}

// removeOpLocked unindexes one posted op.
func (f *Fabric) removeOpLocked(o *op) {
	unindex(f.byOwner, o.owner, o.ownerIdx).ownerIdx = o.ownerIdx
	if o.branch.Dir == DirSend {
		unindex(f.sendersTo, o.branch.Peer, o.sendIdx).sendIdx = o.sendIdx
	}
}

// unindex removes index[key][i] in O(1) by moving the list's last op into
// its place, and returns the moved op for the caller to record its new
// position. The emptied list keeps its key and storage.
func unindex(index map[Addr][]*op, key Addr, i int) *op {
	list := index[key]
	last := len(list) - 1
	moved := list[last]
	list[i] = moved
	list[last] = nil
	index[key] = list[:last]
	return moved
}

// Terminate marks addr terminated: pending operations that can now never
// commit because every live branch targeted addr fail with
// ErrPeerTerminated, pending operations owned by addr fail with
// ErrSelfTerminated, and future operations involving addr fail likewise.
// Terminating an already-terminated address is a no-op.
func (f *Fabric) Terminate(addr Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.terminated[addr] {
		return
	}
	f.terminated[addr] = true
	// Permanently (until Reset) heat the address slot so the fast lane
	// escalates any operation involving addr, then fail the ops already
	// parked in its cells.
	f.hot[hotIndex(addr)].Add(1)
	f.failParkedInvolvingLocked(addr)

	// Fail the slow-lane groups addr owns, then every other group whose live
	// branches all targeted addr. Both are collected before the first is
	// failed, one entry per group however many of its ops the walk meets
	// (g.ops[0] stands for the group): an owner that has its result may hand
	// its slot to another scope at once, so neither a failed group nor its
	// ops may be looked at again.
	var ownedBuf, stuckBuf [4]*group // a finishing role strands a few groups at most
	owned, stuck := ownedBuf[:0], stuckBuf[:0]
	for owner, list := range f.byOwner {
		for _, o := range list {
			g := o.g
			switch {
			case g.ops[0] != o || g.claimed():
			case owner == addr:
				owned = append(owned, g)
			case f.groupStuckOnLocked(g, addr):
				stuck = append(stuck, g)
			}
		}
	}
	for _, g := range owned {
		f.failGroupLocked(g, ErrSelfTerminated)
	}
	for _, g := range stuck {
		f.failGroupLocked(g, ErrPeerTerminated)
	}
}

// groupStuckOnLocked reports whether g has a branch targeting addr and every
// posted op of g targets a terminated peer.
func (f *Fabric) groupStuckOnLocked(g *group, addr Addr) bool {
	targets := false
	for _, o := range g.ops {
		if o.branch.AnyPeer || !f.terminated[o.branch.Peer] {
			return false
		}
		targets = targets || o.branch.Peer == addr
	}
	return targets
}

func (f *Fabric) failGroupLocked(g *group, err error) {
	if !g.claim() {
		return
	}
	f.removeGroupLocked(g)
	g.res <- result{err: err}
}

// TerminateAbsent terminates every address that is the target of some
// pending operation and for which isLive returns false. The script layer
// calls this when a performance's membership closes: operations blocked on
// roles that will never be filled must fail with ErrPeerTerminated rather
// than hang (the paper's "distinguished value" solution for unfilled roles).
// Addresses that currently own pending operations are never terminated by
// this call, regardless of isLive.
func (f *Fabric) TerminateAbsent(isLive func(Addr) bool) {
	f.mu.Lock()
	parked := f.parked.Load() > 0
	if len(f.byOwner) == 0 && !parked {
		// Nothing has been posted yet — the usual case, the cast having just
		// been assigned.
		f.mu.Unlock()
		return
	}
	var targets []Addr
	examine := func(o *op) {
		peer := o.branch.Peer
		if o.g.claimed() || o.branch.AnyPeer || peer == o.owner {
			return
		}
		if !f.terminated[peer] && !slices.Contains(targets, peer) && !isLive(peer) {
			targets = append(targets, peer)
		}
	}
	for _, list := range f.byOwner {
		for _, o := range list {
			examine(o)
		}
	}
	// Fast-parked ops block on unfilled roles too.
	if parked {
		for i := range f.shards {
			sh := &f.shards[i]
			sh.mu.Lock()
			for _, list := range sh.cells {
				for _, o := range list {
					examine(o)
				}
			}
			sh.mu.Unlock()
		}
	}
	// An address that owns pending ops is alive by definition.
	targets = slices.DeleteFunc(targets, func(a Addr) bool {
		return len(f.byOwner[a]) > 0 || f.parkedBy(a)
	})
	f.mu.Unlock()
	for _, a := range targets {
		f.Terminate(a)
	}
}

// Terminated reports whether addr has been terminated.
func (f *Fabric) Terminated(addr Addr) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.terminated[addr]
}

// Close fails every pending operation with ErrClosed and rejects all future
// operations. Close is idempotent.
func (f *Fabric) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	f.fastOK.Store(false)
	f.failAllLocked(ErrClosed)
}

// Abort fails every pending operation with the given reason and makes every
// future operation fail with it too, until Reset. It is the communication
// half of aborting one performance: unlike Close — which marks the fabric
// unusable for good and is shared by instance shutdown — Abort carries a
// caller-supplied reason (the script layer passes its *AbortError* naming
// the culprit role), so blocked co-performers unwind with a diagnosis
// instead of a generic closure. A nil reason defaults to ErrAborted. Abort
// is idempotent: the first reason wins, and Abort after Close is a no-op.
func (f *Fabric) Abort(reason error) {
	if reason == nil {
		reason = ErrAborted
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.aborted != nil {
		return
	}
	f.aborted = reason
	f.fastOK.Store(false)
	f.failAllLocked(reason)
}

// failAllLocked fails every pending operation — slow-lane and fast-parked —
// with err and empties the posting indexes. The caller must already have
// cleared fastOK so newly arriving fast ops escalate and observe the
// closed/aborted state.
func (f *Fabric) failAllLocked(err error) {
	// Claim first, deliver after the walk: an owner that has its result may
	// hand its slot to another scope at once, and the walk still has that
	// group's other ops ahead of it.
	var failed []*group
	for _, list := range f.byOwner {
		for _, o := range list {
			g := o.g
			if !g.claim() {
				continue // a sibling op already failed this group
			}
			if g.hotIdx >= 0 {
				f.hot[g.hotIdx].Add(-1)
				g.hotIdx = -1
			}
			g.ops = g.ops[:0]
			failed = append(failed, g)
		}
	}
	clear(f.byOwner)
	clear(f.sendersTo)
	for _, g := range failed {
		g.res <- result{err: err}
	}
	f.failAllParkedLocked(err)
}

// Waiting reports whether addr currently owns a pending (uncommitted)
// operation — i.e. it is blocked inside the fabric trying to communicate,
// in either lane. The script layer uses this to tell a wedged role (enrolled
// but never communicating) apart from its blocked co-performers when picking
// the culprit of a deadline abort.
func (f *Fabric) Waiting(addr Addr) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, o := range f.byOwner[addr] {
		if !o.g.claimed() {
			return true
		}
	}
	return f.parkedBy(addr)
}

// WaitingSnapshot returns every address that owns a pending (uncommitted)
// operation — in either lane — as one consistent snapshot taken under the
// fabric lock, sorted. Unlike probing Waiting once per address, which takes
// and releases the lock between probes (an op can commit or park between two
// probes, so the probe series is not a state the fabric was ever in), the
// snapshot is a single linearization point. The script layer uses it for
// abort-culprit attribution, and the remote host for diagnosing which role a
// disconnected enroller left parked.
func (f *Fabric) WaitingSnapshot() []Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	set := make(map[Addr]struct{})
	for a, list := range f.byOwner {
		for _, o := range list {
			if !o.g.claimed() {
				set[a] = struct{}{}
				break
			}
		}
	}
	if f.parked.Load() > 0 {
		for i := range f.shards {
			sh := &f.shards[i]
			sh.mu.Lock()
			for _, list := range sh.cells {
				for _, o := range list {
					if !o.g.claimed() {
						set[o.owner] = struct{}{}
					}
				}
			}
			sh.mu.Unlock()
		}
	}
	out := make([]Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reset returns a closed (or idle) fabric to its initial empty state so it
// can be reused for a new communication scope, retaining the maps' buckets
// and nothing else: a pooled fabric serves scopes with unrelated address
// sets, so no key may outlive its scope. The caller must guarantee that no
// operation is in flight: every Do call on the fabric has returned. The
// script runtime pools fabrics across successive performances — safe because
// a performance finishes only after every role body (and hence every fabric
// operation it issued) has returned.
//
// Reset costs what the scope used, not what the tables could hold. At
// quiescence a hot slot is non-zero only where something raised it for good
// (Terminate) or left a posted group armed, so only the slots of terminated
// addresses and of owners still indexed are zeroed; only shards an op ever
// parked in are visited; and the parked counters, raised and lowered in pairs
// by the ops themselves, are already zero.
func (f *Fabric) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = false
	f.aborted = nil
	f.seq.Store(0)
	for a := range f.terminated {
		f.hot[hotIndex(a)].Store(0)
	}
	for a := range f.byOwner {
		f.hot[hotIndex(a)].Store(0)
	}
	clear(f.byOwner)
	clear(f.sendersTo)
	clear(f.terminated)
	for m := f.touched.Swap(0); m != 0; m &= m - 1 {
		sh := &f.shards[bits.TrailingZeros64(m)]
		sh.mu.Lock()
		clear(sh.cells)
		sh.fastCommits = 0
		sh.mu.Unlock()
	}
	f.faults = nil
	f.fastOK.Store(!f.noFast && f.rng == nil)
}

// PendingCount returns the number of pending (uncommitted) operations in
// both lanes, for tests and diagnostics.
func (f *Fabric) PendingCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := int(f.parked.Load())
	for _, list := range f.byOwner {
		n += len(list)
	}
	return n
}

// FastCommits returns how many rendezvous have committed entirely on the
// fast lane (both parties bypassing the fabric lock), for tests and
// benchmarks asserting that the lane actually engages.
func (f *Fabric) FastCommits() uint64 {
	var n uint64
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		n += sh.fastCommits
		sh.mu.Unlock()
	}
	return n
}
