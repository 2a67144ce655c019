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
//     through an exchange cell in the receiving endpoint's inbox, with no
//     global lock.
//   - The *slow lane* (this file) is the generalized matcher: every Do with
//     multiple branches, AnyPeer/AnyTag wildcards, termination, Abort and
//     WithRandomMatching goes through the single fabric lock, which makes
//     its decisions a legal linearization.
//
// An escalation protocol keeps the lanes linearizable with each other: the
// slow lane raises the "hot" mark of the endpoint it works for before it
// scans ("drains") the fast lane's cells, and a fast-lane operation re-checks
// the marks of both its endpoints after parking, so for any pair of racing
// operations at least one side observes the other (a Dekker-style
// store/load handshake backed by Go's sequentially consistent atomics).
//
// # Endpoints
//
// An address is interned once, by Endpoint, into a dense table, and all the
// fabric keeps per address — inbox, pending ops, hot mark, parked count,
// termination — is a field of that endpoint: the marks are exact, and no
// operation hashes a name. There is one implementation, which takes IDs
// (SendID, RecvID, DoID, ScatterID, TerminateID, ...); the operations that
// take an Addr resolve their arguments and call it.
package rendezvous

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/scriptabs/goscript/internal/ctxwatch"
	"github.com/scriptabs/goscript/internal/metrics"
)

// Always-on lane-hit counters: how many ops — point ops and a Scatter's
// offers alike — the lock-free fast lane took (postFast: committed or parked)
// versus the locked matcher (enqueueLocked, escalations included). The
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

	// A withdrawing function's word to the blocking call it withdraws for
	// (see await), never returned: errWithdrawn says it withdrew the call's
	// op, whose outcome is the end of the context; errLetGo that an outcome
	// came first, and is the call's own.
	errWithdrawn = errors.New("rendezvous: withdrawn as the context ended")
	errLetGo     = errors.New("rendezvous: the outcome came first")
)

// Alt is one alternative of a generalized select, naming its peer by address
// (Branch, which Do takes) or by endpoint ID (IDBranch, which DoID takes).
// Peer and Tag restrict which counterpart operations can match:
//
//   - AnyPeer true accepts a counterpart from any address (Ada-style accept;
//     the extended CSP naming of Francez [2]). Only valid for DirRecv.
//   - AnyTag true accepts any tag. Only valid for DirRecv.
//
// For DirSend, Val carries the value to transfer; for DirRecv it is ignored.
type Alt[P Addr | ID] struct {
	Dir     Dir
	Peer    P
	AnyPeer bool
	Tag     Tag
	AnyTag  bool
	Val     any
}

// Committed describes the branch that committed in a Do call (Outcome) or a
// DoID call (IDOutcome).
type Committed[P Addr | ID] struct {
	// Index is the position of the committed branch in the call's slice.
	Index int
	// Peer is the actual counterpart (useful with AnyPeer).
	Peer P
	// Tag is the actual message tag (useful with AnyTag).
	Tag Tag
	// Val is the received value for a DirRecv branch; nil for DirSend.
	Val any
}

// The two spellings of an alternative and of its outcome.
type (
	Branch    = Alt[Addr]
	Outcome   = Committed[Addr]
	IDBranch  = Alt[ID]
	IDOutcome = Committed[ID]
)

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

// WithWatch lends the fabric w, a watch its caller keeps the contexts of the
// fabric's blocking calls in: a call whose context has a set in w parks on
// its outcome alone, and w withdraws it if the context ends (see await).
func WithWatch(w *ctxwatch.Watch) Option {
	return func(f *Fabric) { f.watch = w }
}

// Fabric is a synchronous rendezvous domain. Create one per communication
// scope (one per script instance, one per CSP parallel command, ...).
type Fabric struct {
	mu      sync.Mutex
	aborted error      // non-nil once Abort or Close was called; the failure reason
	rng     *rand.Rand // nil = FIFO matching
	noFast  bool       // WithoutFastPath
	watch   *ctxwatch.Watch

	seq atomic.Uint64 // post order, for FIFO matching (shared by both lanes)
	// fastOK gates the fast lane as a whole (false when closed, aborted,
	// random-matching, or WithoutFastPath).
	fastOK atomic.Bool
	faults FastFaults

	// The endpoint table (see endpoint): names maps an address to its
	// endpoint, eps is the table itself, published whole so that readers take
	// no lock, and kept (guarded by mu) is how many endpoints, from the front,
	// were declared and so outlast Reset. namesMu guards names and the growing
	// of eps. used heads the list of endpoints the scope has used
	// (endpoint.used).
	namesMu sync.RWMutex
	names   map[Addr]*endpoint
	eps     atomic.Pointer[[]*endpoint]
	kept    int
	used    atomic.Pointer[endpoint]
	// posted counts the ops in the endpoints' pending lists (guarded by mu):
	// zero, the usual case when a role ends, and no endpoint need be visited to
	// know that nothing is stranded there. walked counts the endpoints
	// TerminateID did visit, for the test that holds it to that.
	posted, walked int
	// owed holds, under mu, the outcomes a critical section delivered to posted
	// ops: a completer never runs under the lock, so whoever lets it go pays
	// them (see owing and Owed).
	owed []due
}

// New creates an empty fabric.
func New(opts ...Option) *Fabric {
	f := &Fabric{names: make(map[Addr]*endpoint)}
	f.eps.Store(new([]*endpoint))
	for _, o := range opts {
		o(f)
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
	res   chan result  // buffered 2; receives the single outcome or failure, and await's word
	// done is the completer of a posted op or of a Scatter's offer, nil when a
	// goroutine waits on res; slot is the storage the group lives in.
	done Completer
	slot *slot

	// Slow-lane residency, guarded by the fabric lock: the ops of this group
	// currently posted in the matcher, and their owner while its hot mark is
	// raised on their account (nil when none are posted). A fast-parked op's
	// group has empty ops until drained.
	ops   []*op
	armed *endpoint
}

// result is what a group's owner receives: the committed outcome, or the
// failure reason. A claimed group gets exactly one.
type result struct {
	out IDOutcome
	err error
}

// claim atomically claims the group; exactly one caller wins.
func (g *group) claim() bool { return g.state.CompareAndSwap(0, 1) }

// claimed reports whether the group has been claimed.
func (g *group) claimed() bool { return g.state.Load() != 0 }

// op is one branch of an alternative, parked or posted.
type op struct {
	g           *group
	owner, peer *endpoint // peer is nil for an AnyPeer receive
	tag         Tag
	val         any
	seq         uint64
	index       int
	// ownerIdx is this op's position in owner.pending and, for a send,
	// sendIdx its position in peer.sends, both maintained by swap-delete so
	// withdrawal is O(1) instead of a slice filter.
	ownerIdx, sendIdx int
	dir               Dir
	anyTag            bool
}

// Completer is told the outcome of an op posted with PostDoID or
// PostScatterID, once: by the goroutine that committed or failed the op —
// the poster itself when the op resolved on its way in — and never under a
// fabric or inbox lock, so it may post again or call back into the layer
// above. It must not block: the committer is another party's goroutine.
type Completer interface {
	Complete(out IDOutcome, err error)
}

// due is one outcome owed to a posted op by a critical section that
// delivered it under the fabric lock.
type due struct {
	g *group
	r result
}

// Owed is the outcomes a call made under its caller's lock delivered to
// posted ops: TerminateID, TerminateAbsentID, Abort and Close return them, for
// a caller that holds a lock a completer may take (the script runtime's
// instance lock) to pay once it has let go of it. Nil when nothing was owed.
type Owed []due

// Pay delivers every outcome in o to its completer.
func (o Owed) Pay() {
	for _, d := range o {
		d.g.deliver(d.r)
	}
}

// deliver hands the claimed group g its outcome: on its channel, to the
// goroutine that waits, or to the completer of a posted op. The caller holds
// no fabric or inbox lock when the completer is one deliverLocked owes.
func (g *group) deliver(r result) {
	if g.done == nil {
		g.res <- r
		return
	}
	g.complete(r)
}

// complete is deliver to a posted op's completer, whose slot goes back to
// the pool first unless its owner releases it.
func (g *group) complete(r result) {
	c := g.done
	if s := g.slot; !s.own {
		s.release()
	}
	c.Complete(r.out, r.err)
}

// deliverLocked is deliver under the fabric lock. An outcome that only wakes
// a goroutine is delivered at once: one on the group's channel, and a
// blocking Scatter's offer, which counts its table down and at the last count
// sends on a buffered channel. A completer's is owed, and paid by whoever
// lets the lock go. By-name callers drop what Terminate, Abort and Close owe,
// so nothing a goroutine waits for may be owed.
func (f *Fabric) deliverLocked(g *group, r result) {
	if s, ok := g.done.(*scatterSlot); g.done == nil || ok && s.t.done == nil {
		g.deliver(r)
		return
	}
	f.owed = append(f.owed, due{g, r})
}

// owing takes what the critical section owes posted ops out of f, into buf's
// storage (a caller that passes nil gets a list of its own). The caller holds
// f.mu, and pays once it has let go.
func (f *Fabric) owing(buf []due) Owed {
	if len(f.owed) == 0 {
		return nil
	}
	o := append(buf, f.owed...)
	clear(f.owed)
	f.owed = f.owed[:0]
	return o
}

// Send offers value v to peer with the given tag and blocks until a matching
// receive commits, ctx is done, or the peer terminates.
func (f *Fabric) Send(ctx context.Context, owner, peer Addr, tag Tag, v any) error {
	return f.SendID(ctx, f.intern(owner).id, f.peerID(peer), tag, v)
}

// SendID is Send between endpoints. It enters the fast lane directly — when
// the handoff commits there, no group is ever taken.
func (f *Fabric) SendID(ctx context.Context, owner, peer ID, tag Tag, v any) error {
	var out IDOutcome
	s, err := f.post(owner, []IDBranch{{Dir: DirSend, Peer: peer, Tag: tag, Val: v}}, nil, &out)
	if s != nil {
		_, err = f.wait(ctx, s)
	}
	return err
}

// Recv requests a value from peer with the given tag and blocks until a
// matching send commits.
func (f *Fabric) Recv(ctx context.Context, owner, peer Addr, tag Tag) (any, error) {
	return f.RecvID(ctx, f.intern(owner).id, f.peerID(peer), tag)
}

// RecvID is Recv between endpoints.
func (f *Fabric) RecvID(ctx context.Context, owner, peer ID, tag Tag) (any, error) {
	var out IDOutcome
	s, err := f.post(owner, []IDBranch{{Dir: DirRecv, Peer: peer, Tag: tag}}, nil, &out)
	if s != nil {
		out, err = f.wait(ctx, s)
	}
	return out.Val, err
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
	var buf [2 * slotOps]IDBranch // wider alternatives than this are resolved on the heap
	alts := buf[:0]
	for _, br := range branches {
		alts = append(alts, IDBranch{Dir: br.Dir, Peer: f.peerID(br.Peer), AnyPeer: br.AnyPeer, Tag: br.Tag, AnyTag: br.AnyTag, Val: br.Val})
	}
	out, err := f.DoID(ctx, f.intern(owner).id, alts)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Index: out.Index, Peer: f.table()[out.Peer].addr, Tag: out.Tag, Val: out.Val}, nil
}

// DoID is Do for an endpoint and an alternative that names its peers by ID:
// the alternative is posted, and the caller waits for its outcome unless it
// resolved on the way in.
func (f *Fabric) DoID(ctx context.Context, owner ID, branches []IDBranch) (IDOutcome, error) {
	var out IDOutcome
	s, err := f.post(owner, branches, nil, &out)
	if s == nil {
		return out, err
	}
	return f.wait(ctx, s)
}

// PostDoID is DoID without the wait: the alternative is posted and the call
// returns, and c is told its outcome — before PostDoID returns, when the
// alternative resolves on the way in. The branches are only read. A posted op
// has no context, and is never withdrawn: it ends in a commit or a failure —
// its peers' termination, its owner's, Abort or Close.
func (f *Fabric) PostDoID(owner ID, branches []IDBranch, c Completer) {
	var out IDOutcome
	if s, err := f.post(owner, branches, c, &out); s == nil {
		c.Complete(out, err)
	}
}

// post places owner's alternative in the fabric: through the fast lane when
// it is one eligible branch, else through the locked matcher. A nil slot
// means it resolved on the way in, with the outcome in out and the error
// returned; otherwise it waits in the slot, whose group is delivered its
// outcome — to the channel when c is nil, to c when not, in which case the
// caller may no longer touch the slot.
func (f *Fabric) post(owner ID, branches []IDBranch, c Completer, out *IDOutcome) (*slot, error) {
	if len(branches) == 0 {
		return nil, ErrNoBranches
	}
	var s *slot
	var seq uint64
	if len(branches) == 1 {
		var handled bool
		if s, handled = f.postFast(owner, &branches[0], c, false, out); handled {
			return s, nil
		}
		if s != nil {
			seq = s.ops[0].seq
		}
	}
	return f.postSlow(f.table()[owner], branches, s, seq, c, out)
}

// wait blocks for the outcome of the op post left in slot s, withdrawing it
// if ctx ends first unless an outcome won the race, and releases s.
func (f *Fabric) wait(ctx context.Context, s *slot) (IDOutcome, error) {
	s.f = f
	r := f.await(ctx, s.g.res, &s.entry)
	s.release()
	return r.out, r.err
}

// await receives the outcome of a blocking call from ch, which holds two.
// While ctx cannot end, or while the fabric's watch has a set for it to add
// e to, the call parks on ch alone; otherwise it selects on ch and
// ctx.Done(). When ctx ends, e's function withdraws the call's op (or every
// offer of a Scatter still out) — run by the watch's AfterFunc, or here once
// the select sees ctx end — and sends its word on ch as its last touch of
// the call: errWithdrawn, or errLetGo when an outcome won the race and comes
// on ch too. A function that may have run is waited for, so the caller may
// release what the function reads as soon as await returns.
func (f *Fabric) await(ctx context.Context, ch <-chan result, e *ctxwatch.Entry) result {
	done := ctx.Done()
	if done == nil {
		return <-ch
	}
	var r result
	var ran bool
	if f.watch != nil && f.watch.Attach(ctx, e) {
		r = <-ch
		ran = !f.watch.Remove(e)
	} else {
		select {
		case r = <-ch:
		case <-done:
			e.Func()
			r, ran = <-ch, true
		}
	}
	switch {
	case r.err == errLetGo:
		r = <-ch
	case r.err == errWithdrawn:
		r.err = ctx.Err()
	case ran:
		<-ch // the function's word, after the outcome it lost to
	}
	return r
}

// fire is a blocking call's withdrawal, e's function in await.
func (s *slot) fire() {
	word := result{err: errWithdrawn}
	if !s.f.withdraw(s) {
		word.err = errLetGo
	}
	s.g.res <- word
}

// postSlow posts me's alternative through the locked matcher. s is the slot
// of an op escalated from the fast lane, its group unclaimed and none of its
// ops referenced by the fabric, and seq that op's post order, to preserve
// (it keeps its place in the FIFO); nil for an op new to the fabric, which
// takes a slot here. It returns as post does, and pays, once the lock is
// let go, what the pass owes posted ops it committed with.
func (f *Fabric) postSlow(me *endpoint, branches []IDBranch, s *slot, seq uint64, c Completer, out *IDOutcome) (*slot, error) {
	if s == nil {
		s = takeSlot(c, false)
	}
	var buf [1]due
	// Entry guard: make the owner hot for the duration of the posting pass,
	// so a fast-lane op racing with us escalates instead of parking invisibly
	// (see the package comment's Dekker handshake).
	me.hot.Add(1)
	f.mu.Lock()
	wait, err := f.enqueueLocked(me, branches, s, seq, out)
	owed := f.owing(buf[:0])
	f.mu.Unlock()
	me.hot.Add(-1)
	owed.Pay()
	if wait {
		return s, nil
	}
	s.release()
	return nil, err
}

// withdraw takes the op waiting in slot s back out of the fabric on its
// owner's behalf, from wherever it is: its cell, if it is still parked there,
// else the matcher. It reports whether it did; if not, a committer or a
// failure claimed the group first, and its outcome is on its way to it. It is
// the one withdrawal of every op: a blocking call's and a blocking Scatter
// offer's.
func (f *Fabric) withdraw(s *slot) bool {
	if s.parked && f.unpark(&s.ops[0]) {
		return true
	}
	g := &s.g
	f.mu.Lock()
	won := g.claim()
	if won {
		f.removeGroupLocked(g)
	}
	f.mu.Unlock()
	return won
}

// enqueueLocked validates, immediately matches or posts the branches under
// the fabric lock. It reports whether the op now waits in s for its outcome;
// an outcome it has at once goes to out.
func (f *Fabric) enqueueLocked(me *endpoint, branches []IDBranch, s *slot, fixedSeq uint64, out *IDOutcome) (wait bool, err error) {
	slowLaneOps.Inc()
	if f.aborted != nil {
		return false, f.aborted
	}
	if me.terminated {
		return false, ErrSelfTerminated
	}

	// Pull every fast-parked op these branches could match into the matcher,
	// so candidates are never split across the lanes.
	eps := f.table()
	for i := range branches {
		f.drainForLocked(me, peerOf(eps, &branches[i]), &branches[i])
	}

	g := &s.g
	if s.n != 0 {
		// An op escalated out of its cell hands its storage back — cleared
		// here, since release only clears what was handed out since.
		s.ops[0] = op{}
		s.n = 0
	}
	liveBranches := 0
	for i := range branches {
		br := &branches[i]
		if err := validateBranch(br); err != nil {
			f.removeGroupLocked(g)
			return false, err
		}
		peer := peerOf(eps, br)
		if peer != nil && peer.terminated {
			continue // dead branch; may still fail the whole call below
		}
		liveBranches++
		o := s.newOp(me, peer, br, i)
		if cand := f.findMatchLocked(o); cand != nil {
			*out = f.commitLocked(o, cand).out
			return false, nil
		}
		if fixedSeq != 0 {
			o.seq = fixedSeq
		} else {
			o.seq = f.seq.Add(1)
		}
		f.postLocked(o)
	}
	if liveBranches == 0 {
		return false, ErrPeerTerminated
	}
	return true, nil
}

// peerOf returns the endpoint br names, nil if it names none.
func peerOf(eps []*endpoint, br *IDBranch) *endpoint {
	if br.AnyPeer || br.Peer < 0 {
		return nil
	}
	return eps[br.Peer]
}

func validateBranch(br *IDBranch) error {
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
	if !br.AnyPeer && br.Peer < 0 {
		return errors.New("rendezvous: branch peer address is empty")
	}
	return nil
}

// findMatchLocked scans pending ops for a counterpart to o. Candidates are
// chosen in FIFO post order, or uniformly at random with WithRandomMatching.
func (f *Fabric) findMatchLocked(o *op) *op {
	var list []*op
	if o.peer != nil {
		list = o.peer.pending
	} else if o.dir == DirRecv {
		list = o.owner.sends
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
// endpoints and tags compatible. a and b are interchangeable.
func matches(a, b *op) bool {
	snd, rcv := a, b
	if a.dir == DirRecv {
		snd, rcv = b, a
	}
	return snd.dir == DirSend && rcv.dir == DirRecv && snd.peer == rcv.owner &&
		(rcv.peer == nil || rcv.peer == snd.owner) && (rcv.anyTag || rcv.tag == snd.tag)
}

// commitLocked claims both groups and removes their posted siblings,
// delivers the pending op its outcome, and returns the new op's, whose owner
// is the caller.
func (f *Fabric) commitLocked(newOp, pending *op) result {
	newOp.g.claim()
	pending.g.claim()
	f.removeGroupLocked(newOp.g)
	f.removeGroupLocked(pending.g)

	snd, rcv := newOp, pending
	if newOp.dir == DirRecv {
		snd, rcv = pending, newOp
	}
	// Copy everything out of both ops before delivering: as soon as a party
	// has its result it may release its (pooled) slot for reuse.
	sndRes := result{out: IDOutcome{Index: snd.index, Peer: rcv.owner.id, Tag: snd.tag}}
	rcvRes := result{out: IDOutcome{Index: rcv.index, Peer: snd.owner.id, Tag: snd.tag, Val: snd.val}}
	if newOp == snd {
		f.deliverLocked(pending.g, rcvRes)
		return sndRes
	}
	f.deliverLocked(pending.g, sndRes)
	return rcvRes
}

// postLocked indexes o for matching and raises its owner's hot mark on the
// group's account, so the fast lane escalates operations that could match
// ops of this group.
func (f *Fabric) postLocked(o *op) {
	g, me := o.g, o.owner
	if g.armed == nil {
		g.armed = me
		me.hot.Add(1)
		f.touch(me)
	}
	g.ops = append(g.ops, o)
	f.posted++
	o.ownerIdx = len(me.pending)
	me.pending = append(me.pending, o)
	if o.dir == DirSend {
		o.sendIdx = len(o.peer.sends)
		o.peer.sends = append(o.peer.sends, o)
	}
}

// removeGroupLocked removes every posted op of g from the matching indexes
// (O(1) per op via the tracked indexes) and lowers the hot mark g held up.
func (f *Fabric) removeGroupLocked(g *group) {
	f.posted -= len(g.ops)
	for _, o := range g.ops {
		unindex(&o.owner.pending, o.ownerIdx).ownerIdx = o.ownerIdx
		if o.dir == DirSend {
			unindex(&o.peer.sends, o.sendIdx).sendIdx = o.sendIdx
		}
	}
	g.ops = g.ops[:0]
	g.disarm()
}

// disarm lowers the hot mark g holds up, if it does.
func (g *group) disarm() {
	if g.armed != nil {
		g.armed.hot.Add(-1)
		g.armed = nil
	}
}

// unindex removes (*list)[i] in O(1) by moving the list's last op into its
// place, and returns the moved op for the caller to record its new position.
// The emptied list keeps its storage.
func unindex(list *[]*op, i int) *op {
	l := *list
	last := len(l) - 1
	moved := l[last]
	l[i] = moved
	l[last] = nil
	*list = l[:last]
	return moved
}

// Terminate marks addr terminated: pending operations that can now never
// commit because every live branch targeted addr fail with
// ErrPeerTerminated, pending operations owned by addr fail with
// ErrSelfTerminated, and future operations involving addr fail likewise.
// Terminating an already-terminated address is a no-op.
// The outcomes it delivers to posted ops are returned, for the caller to pay
// (see Owed).
func (f *Fabric) Terminate(addr Addr) Owed { return f.TerminateID(f.intern(addr).id) }

// TerminateID is Terminate for an endpoint.
func (f *Fabric) TerminateID(id ID) Owed {
	f.mu.Lock()
	f.terminateLocked(f.table()[id])
	owed := f.owing(nil)
	f.mu.Unlock()
	return owed
}

// terminateLocked is TerminateID under the fabric lock.
func (f *Fabric) terminateLocked(e *endpoint) {
	if e.terminated {
		return
	}
	e.terminated = true
	// Permanently (until Reset) heat the endpoint so the fast lane escalates
	// any operation involving it, then fail the ops already parked in its
	// cells.
	e.hot.Add(1)
	f.touch(e)
	f.failParkedInvolvingLocked(e)

	// Fail the slow-lane groups e owns, then every other group whose live
	// branches all targeted e. Both are collected before the first is
	// failed, one entry per group however many of its ops the walk meets
	// (g.ops[0] stands for the group): an owner that has its result may hand
	// its slot to another scope at once, so neither a failed group nor its
	// ops may be looked at again.
	if f.posted == 0 {
		return
	}
	var ownedBuf, stuckBuf [4]*group // a finishing role strands a few groups at most
	owned, stuck := ownedBuf[:0], stuckBuf[:0]
	for u := f.used.Load(); u != nil; u = u.next {
		f.walked++
		for _, o := range u.pending {
			g := o.g
			switch {
			case g.ops[0] != o || g.claimed():
			case u == e:
				owned = append(owned, g)
			case groupStuckOn(g, e):
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

// groupStuckOn reports whether g has a branch targeting e and every posted
// op of g targets a terminated peer.
func groupStuckOn(g *group, e *endpoint) bool {
	targets := false
	for _, o := range g.ops {
		if o.peer == nil || !o.peer.terminated {
			return false
		}
		targets = targets || o.peer == e
	}
	return targets
}

// failGroupLocked claims g, takes its posted ops out of the indexes — a
// parked op just taken out of its cell has none there — and delivers err; it
// does nothing if g is claimed already.
func (f *Fabric) failGroupLocked(g *group, err error) {
	if !g.claim() {
		return
	}
	f.removeGroupLocked(g)
	f.deliverLocked(g, result{err: err})
}

// TerminateAbsentID terminates every endpoint that is the target of some
// pending operation and for which isLive returns false. The script layer
// calls this when a performance's membership closes: operations blocked on
// roles that will never be filled must fail with ErrPeerTerminated rather
// than hang (the paper's "distinguished value" solution for unfilled roles).
// Endpoints that currently own pending operations are never terminated by
// this call, regardless of isLive. isLive is called with the fabric locked.
// The outcomes it delivers to posted ops are returned, as TerminateID's are.
func (f *Fabric) TerminateAbsentID(isLive func(ID) bool) (owed Owed) {
	f.mu.Lock()
	// Nothing posted or parked yet — the usual case, the cast having just
	// been assigned — is an empty walk.
	var targets []*endpoint
	examine := func(o *op) {
		peer := o.peer
		if o.g.claimed() || peer == nil || peer == o.owner {
			return
		}
		if !peer.terminated && !slices.Contains(targets, peer) && !isLive(peer.id) {
			targets = append(targets, peer)
		}
	}
	for u := f.used.Load(); u != nil; u = u.next {
		for _, o := range u.pending {
			examine(o)
		}
		f.inboxLocked(u, false, examine) // fast-parked ops block on unfilled roles too
	}
	// An address that owns pending ops is alive by definition.
	targets = slices.DeleteFunc(targets, func(e *endpoint) bool {
		return len(e.pending) > 0 || f.parkedByLocked(e)
	})
	f.mu.Unlock()
	for _, e := range targets {
		owed = append(owed, f.TerminateID(e.id)...)
	}
	return owed
}

// Terminated reports whether addr has been terminated.
func (f *Fabric) Terminated(addr Addr) bool {
	e := f.intern(addr)
	f.mu.Lock()
	defer f.mu.Unlock()
	return e.terminated
}

// Close is Abort with ErrClosed: it fails every pending operation and every
// future one with ErrClosed, until Reset. Like Abort it is idempotent and
// keeps the first reason, so Close after Abort leaves the abort's. The
// outcomes it delivers to posted ops are returned, as TerminateID's are.
func (f *Fabric) Close() Owed { return f.Abort(ErrClosed) }

// Abort fails every pending operation with the given reason and makes every
// future operation fail with it too, until Reset. It is the communication
// half of aborting one performance: unlike Close — shared by instance
// shutdown, whose reason is ErrClosed — Abort carries a caller-supplied
// reason (the script layer passes its *AbortError* naming the culprit
// role), so blocked co-performers unwind with a diagnosis instead of a
// generic closure. A nil reason defaults to ErrAborted. Abort is
// idempotent: the first reason wins, Close's included. The outcomes it
// delivers to posted ops are returned, as TerminateID's are.
func (f *Fabric) Abort(reason error) Owed {
	if reason == nil {
		reason = ErrAborted
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.aborted != nil {
		return nil
	}
	f.aborted = reason
	f.fastOK.Store(false)
	f.failAllLocked(reason)
	return f.owing(nil)
}

// failAllLocked fails every pending operation — slow-lane and fast-parked —
// with err and empties the posting indexes. The caller must already have
// cleared fastOK so newly arriving fast ops escalate and observe the
// aborted state.
func (f *Fabric) failAllLocked(err error) {
	// Claim first, deliver after the walk: an owner that has its result may
	// hand its slot to another scope at once, and the walk still has that
	// group's other ops ahead of it.
	var failed []*group
	for u := f.used.Load(); u != nil; u = u.next {
		for _, o := range u.pending {
			if o.dir == DirSend {
				clear(o.peer.sends)
				o.peer.sends = o.peer.sends[:0]
			}
			if g := o.g; g.claim() { // else a sibling op already failed this group
				g.disarm()
				g.ops = g.ops[:0]
				failed = append(failed, g)
			}
		}
		clear(u.pending)
		u.pending = u.pending[:0]
	}
	f.posted = 0
	for _, g := range failed {
		f.deliverLocked(g, result{err: err})
	}
	for u := f.used.Load(); u != nil; u = u.next {
		f.inboxLocked(u, true, func(o *op) { f.failGroupLocked(o.g, err) })
	}
}

// WaitingIDs returns every endpoint that owns a pending (uncommitted)
// operation — in either lane — as one consistent snapshot taken under the
// fabric lock, in ascending ID order: a single linearization point, where a
// probe per address would take and release the lock between probes (an op
// can commit or park between two, so the series is not a state the fabric
// was ever in). The script layer uses it to tell a wedged role (enrolled but
// never communicating) apart from its blocked co-performers when picking the
// culprit of a deadline abort.
func (f *Fabric) WaitingIDs() []ID {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ids []ID
	for u := f.used.Load(); u != nil; u = u.next {
		if slices.ContainsFunc(u.pending, func(o *op) bool { return !o.g.claimed() }) {
			ids = append(ids, u.id)
		}
		f.inboxLocked(u, false, func(o *op) {
			if !o.g.claimed() {
				ids = append(ids, o.owner.id)
			}
		})
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Reset returns a closed (or idle) fabric to its initial empty state so it
// can be reused for a new communication scope. The declared endpoints stay,
// with their IDs and the storage of their cells and lists — the next scope
// has the same parties — and every other endpoint goes, with the cells that
// name it. The caller must guarantee that no operation is in flight: every
// Do call on the fabric has returned. The script runtime reuses an instance's
// fabric across its successive performances — safe because a performance
// finishes only after every role body (and hence every fabric operation it
// issued) has returned.
//
// Reset costs what the scope used, not what the table holds. At quiescence
// every cell and list is empty and every parked count zero — the ops
// themselves balance them — and a hot mark is non-zero only where something
// raised it for good (Terminate), so only the endpoints on the used list are
// visited, and of those only the marks, the termination and the commit
// counter are reset.
func (f *Fabric) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborted = nil
	f.seq.Store(0)
	for u := f.used.Swap(nil); u != nil; {
		next := u.next
		u.mu.Lock()
		u.fastCommits = 0
		u.mu.Unlock()
		u.terminated = false
		u.hot.Store(0)
		u.next = nil
		u.used.Store(false)
		u = next
	}
	f.dropUndeclaredLocked()
	f.faults = nil
	f.fastOK.Store(!f.noFast && f.rng == nil)
}

// dropUndeclaredLocked cuts the table back to the declared endpoints, and
// takes the dropped ones out of what the kept ones hold by ID: the cells for
// a dropped sender's messages, and the dropped inboxes among their peers. An
// ID freed here may name another address in the next scope.
func (f *Fabric) dropUndeclaredLocked() {
	tbl, kept := f.table(), ID(f.kept)
	if len(tbl) == int(kept) {
		return
	}
	f.namesMu.Lock()
	defer f.namesMu.Unlock()
	for _, d := range tbl[kept:] {
		delete(f.names, d.addr)
		for _, p := range d.peers {
			if p < kept {
				e := tbl[p]
				e.cells = slices.DeleteFunc(e.cells, func(c cell) bool { return c.from >= kept })
			}
		}
		for i := range d.cells {
			if from := d.cells[i].from; from < kept {
				e := tbl[from]
				e.peers = slices.DeleteFunc(e.peers, func(id ID) bool { return id >= kept })
			}
		}
	}
	clear(tbl[kept:])
	tbl = tbl[:kept]
	f.eps.Store(&tbl)
}

// PendingCount returns the number of pending (uncommitted) operations in
// both lanes, for tests and diagnostics.
func (f *Fabric) PendingCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for u := f.used.Load(); u != nil; u = u.next {
		n += len(u.pending)
		f.inboxLocked(u, false, func(*op) { n++ })
	}
	return n
}

// FastCommits returns how many rendezvous have committed entirely on the
// fast lane (both parties bypassing the fabric lock), for tests and
// benchmarks asserting that the lane actually engages.
func (f *Fabric) FastCommits() uint64 {
	var n uint64
	for _, e := range f.table() {
		e.mu.Lock()
		n += e.fastCommits
		e.mu.Unlock()
	}
	return n
}
