package rendezvous

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/ctxwatch"
)

// This file is the fabric's endpoint table and its fast lane: a directed,
// single-branch Send or Recv with a concrete (peer, tag) commits through an
// exchange cell in the receiving endpoint's inbox, touching that endpoint's
// mutex instead of the fabric lock. See the package comment for the
// escalation protocol that keeps it linearizable with the slow lane, and
// DESIGN.md "Fabric internals" for the full argument.

// ID names an endpoint of one fabric: its index in the fabric's endpoint
// table, handed out by Endpoint (and by Declare, in order). Everything the
// fabric keeps per address is a field of the endpoint, so an operation that
// names its parties by ID hashes nothing. An ID means nothing to another
// fabric, and an undeclared one nothing after Reset.
type ID int32

// noPeer is the ID of a peer the caller did not name: an AnyPeer branch, or
// the empty address, which validation rejects where it always did.
const noPeer ID = -1

// endpoint is one address's state in the fabric.
type endpoint struct {
	id   ID
	addr Addr

	// The inbox, guarded by mu: one exchange cell per (sender, tag) for the
	// messages addressed to this endpoint. A send to it and its own matching
	// receive meet in the same cell. Cells are found by a scan — an inbox is
	// as wide as the endpoint has senders, a handful in every script — and,
	// once made, keep their place and their storage for as long as both ends
	// stay in the table. fastCommits is per inbox to avoid a shared counter.
	mu          sync.Mutex
	cells       []cell
	fastCommits uint64

	// hot counts the reasons this endpoint must stay off the fast lane:
	// pending slow-lane groups it owns, its posting passes in progress, and
	// its termination (a permanent increment until Reset). parked counts the
	// ops waiting in cells that name it at either end: its own inbox, and its
	// cells in the inboxes of peers. Both are exact, so a zero is a fact.
	hot    atomic.Int64
	parked atomic.Int64
	// used is set, and the endpoint pushed on the fabric's used list, when
	// an op first parks in its inbox, posts under it or terminates it, so the
	// walks that must see every pending op (Close, Abort, TerminateAbsentID, the
	// snapshots) and Reset visit what the scope used and nothing else.
	used atomic.Bool
	next *endpoint

	// Slow-lane state, guarded by the fabric lock: the pending ops this
	// endpoint owns and the pending sends aimed at it (for AnyPeer receives),
	// both in swap-delete order and both keeping their storage when emptied;
	// the endpoints whose inboxes hold a cell of its messages; and whether it
	// was terminated.
	pending    []*op
	sends      []*op
	peers      []ID
	terminated bool
}

// cell holds the ops parked for one (sender, tag) of an inbox in ascending
// seq order; all ops in one cell share a direction (two opposite directions
// would have committed on arrival).
type cell struct {
	from ID
	tag  Tag
	ops  []*op
}

// Endpoint returns the ID of address a, adding it to the table on first use.
// Callers that hold on to IDs (the script runtime does) resolve each name
// once; the Addr-taking operations resolve their arguments on every call.
func (f *Fabric) Endpoint(a Addr) ID { return f.intern(a).id }

func (f *Fabric) intern(a Addr) *endpoint {
	f.namesMu.RLock()
	e := f.names[a]
	f.namesMu.RUnlock()
	if e != nil {
		return e
	}
	f.namesMu.Lock()
	defer f.namesMu.Unlock()
	if e = f.names[a]; e != nil {
		return e
	}
	// Publish a longer table: a reader holding the shorter one never indexes
	// the new element, whether or not the two share a backing array.
	tbl := f.table()
	e = &endpoint{id: ID(len(tbl)), addr: a}
	tbl = append(tbl, e)
	f.eps.Store(&tbl)
	f.names[a] = e
	return e
}

// Declare adds addrs to the table in order and makes every endpoint added so
// far one that Reset keeps, with its ID and the storage of its cells and
// lists. A scope with a fixed set of parties declares them once, on a new
// fabric — the i-th address is then endpoint i for good; endpoints added
// later last until the next Reset.
func (f *Fabric) Declare(addrs ...Addr) {
	for _, a := range addrs {
		f.intern(a)
	}
	f.mu.Lock()
	f.kept = len(f.table())
	f.mu.Unlock()
}

// table returns the current endpoint table. It only ever grows between
// Resets, so every ID its caller was handed before the call indexes it.
func (f *Fabric) table() []*endpoint { return *f.eps.Load() }

// peerID resolves the peer of an Addr-taking operation.
func (f *Fabric) peerID(a Addr) ID {
	if a == "" {
		return noPeer
	}
	return f.intern(a).id
}

// touch puts e on the used list the first time the scope uses it. Callers
// hold e.mu or the fabric lock; the walks hold the fabric lock.
func (f *Fabric) touch(e *endpoint) {
	if e.used.Load() || !e.used.CompareAndSwap(false, true) {
		return
	}
	for {
		head := f.used.Load()
		e.next = head
		if f.used.CompareAndSwap(head, e) {
			return
		}
	}
}

// cellLocked returns the cell of to's inbox for from's messages under tag,
// making it if this is their first. to.mu is held on entry and on return,
// but a new cell is made under the fabric lock — which is what guards
// from.peers, the list Terminate finds the cell by — so it is dropped in
// between, and with it any cell the caller was holding: the inbox may have
// grown into a new array.
func (f *Fabric) cellLocked(from, to *endpoint, tag Tag) *cell {
	for {
		if c := to.find(from.id, tag); c != nil {
			return c
		}
		to.mu.Unlock()
		f.mu.Lock()
		to.mu.Lock()
		switch c := to.spare(from.id); {
		case to.find(from.id, tag) != nil: // made while neither lock was held
		case c != nil:
			c.tag = tag
		default:
			to.cells = append(to.cells, cell{from: from.id, tag: tag})
			if !slices.Contains(from.peers, to.id) {
				from.peers = append(from.peers, to.id)
			}
		}
		f.mu.Unlock()
	}
}

// tagsKept is how many cells an inbox holds for one sender before a tag new
// to it takes over one of them that is empty: a script has a few message
// kinds between two roles, but tags are the caller's strings (and a remote
// caller's), so without the bound an inbox that outlives its scope would grow,
// and its scan with it, by a cell for every tag ever used.
const tagsKept = 8

// spare returns an empty cell of from's messages to retag, nil while from has
// fewer than tagsKept cells in the inbox or none of them is empty. Nothing
// refers to an empty cell but the inbox. The caller holds e.mu.
func (e *endpoint) spare(from ID) *cell {
	var idle *cell
	n := 0
	for i := range e.cells {
		if c := &e.cells[i]; c.from == from {
			n++
			if len(c.ops) == 0 {
				idle = c
			}
		}
	}
	if n < tagsKept {
		return nil
	}
	return idle
}

// find returns the inbox's cell for (from, tag), nil if there is none (yet,
// or any more). The caller holds e.mu.
func (e *endpoint) find(from ID, tag Tag) *cell {
	for i := range e.cells {
		if c := &e.cells[i]; c.from == from && c.tag == tag {
			return c
		}
	}
	return nil
}

// FastFaults injects chaos faults into fast-lane handoffs: a latency after a
// waiting op parks, before its escalation check (widening the race windows
// the Dekker handshake must cover: a commit, a drain or a failure may take
// the op in between), and a spurious eviction that forces the op to retry
// through the slow lane. Both perturb timing and routing only — a fault can
// reroute or delay an op but never change what it is allowed to match.
// Implementations must be safe for concurrent use.
type FastFaults interface {
	// FastDelay returns a latency to impose after parking (0 = none); a
	// posted op, which has no owner waiting, is not delayed.
	FastDelay() time.Duration
	// FastEvict reports whether the parked op should be spuriously evicted
	// from its cell and re-posted through the slow lane.
	FastEvict() bool
}

// SetFastFaults attaches a fast-lane fault injector (nil disables). It must
// be called while the fabric is quiescent — before the communication scope's
// parties start operating — and is cleared by Reset.
func (f *Fabric) SetFastFaults(ff FastFaults) { f.faults = ff }

// postFast tries to place a single directed branch through the fast lane.
// handled=false means the caller must use the slow lane: the op is not
// eligible (s nil), or it parked and escalation struck (s holds it, out of
// its cell, its seq kept). handled=true means the op committed with a parked
// counterpart (s nil, the outcome in out) or is parked in its cell and
// waits in s, its outcome to be delivered to s's group (see post for c, and
// takeSlot for own).
func (f *Fabric) postFast(owner ID, br *IDBranch, c Completer, own bool, out *IDOutcome) (s *slot, handled bool) {
	if !f.fastOK.Load() {
		return nil, false
	}
	if br.AnyPeer || br.AnyTag || br.Peer < 0 || br.Peer == owner ||
		(br.Dir != DirSend && br.Dir != DirRecv) {
		return nil, false // wildcards, self-sends and invalid branches: slow lane
	}
	eps := f.table()
	me, peer := eps[owner], eps[br.Peer]
	if me.hot.Load() != 0 || peer.hot.Load() != 0 {
		return nil, false
	}
	from, to := me, peer
	if br.Dir == DirRecv {
		from, to = peer, me
	}

	to.mu.Lock()
	cl := f.cellLocked(from, to, br.Tag)
	if len(cl.ops) > 0 && cl.ops[0].dir != br.Dir {
		// A counterpart is parked: commit with it. The arriving side needs no
		// group of its own — its outcome is computed in place.
		p := to.commitHead(cl, from)
		to.mu.Unlock()
		// Copy p's fields before delivering its result — the counterpart may
		// release its pooled slot the moment the result lands.
		pg, pVal := p.g, p.val
		fastLaneOps.Inc()
		*out = IDOutcome{Peer: br.Peer, Tag: br.Tag}
		r := result{out: IDOutcome{Index: p.index, Peer: owner, Tag: br.Tag, Val: br.Val}}
		if br.Dir == DirRecv { // the parked send's value comes here, nothing goes back
			out.Val, r.out.Val = pVal, nil
		}
		pg.deliver(r)
		return nil, true
	}
	// Park. The group and op share one pooled allocation; the seq is drawn
	// inside the critical section so each cell stays sorted by post order.
	s = takeSlot(c, own)
	o := s.newOp(me, peer, br, 0)
	f.park(cl, o)
	ff := f.faults
	if ff != nil && c == nil {
		// The slot stays its poster's until it waits, so the fault's latency
		// can open the window between the park and the re-check below.
		if d := ff.FastDelay(); d > 0 {
			to.mu.Unlock()
			time.Sleep(d)
			to.mu.Lock()
		}
	}
	// Dekker re-check, made before the inbox mutex is let go — after that a
	// posted op may be committed and its slot reused at any moment, and is no
	// longer its poster's to look at. The park (a store) came before these
	// loads, and every slow-lane pass stores its hot marks before it loads the
	// parked counts, so if a racing slow-lane op missed our park we observe
	// its mark here, and take the op back out of its cell to meet it in the
	// slow lane — unless, after a delay, a commit or a drain took it first:
	// then its outcome is on its way, here or in the slow lane.
	escalate := (ff != nil && ff.FastEvict()) || !f.fastOK.Load() || me.hot.Load() != 0 || peer.hot.Load() != 0
	if escalate && to.unparkLocked(o) {
		to.mu.Unlock()
		s.parked = false
		return s, false
	}
	to.mu.Unlock()
	fastLaneOps.Inc()
	return s, true
}

// commitHead takes the FIFO head of cell c, which holds from's messages in
// e's inbox, for a counterpart that has just arrived, and claims it: cell
// residency implies the head's group is unclaimed (claimers remove the op
// from the cell in the same critical section), so the claim succeeds. The
// caller holds e.mu, and delivers the head's result once it has let go.
func (e *endpoint) commitHead(c *cell, from *endpoint) *op {
	p := c.ops[0]
	c.ops = slices.Delete(c.ops, 0, 1) // shifts, so the cell keeps its capacity
	from.parked.Add(-1)
	e.parked.Add(-1)
	p.g.claim()
	e.fastCommits++
	return p
}

// park appends o to cell c of its receiver's inbox, whose mutex the caller
// holds, and counts it at both ends before that mutex is released: whoever
// then reads a zero count at either end knows o's owner has yet to make its
// escalation check.
func (f *Fabric) park(c *cell, o *op) {
	o.seq = f.seq.Add(1)
	o.g.slot.parked = true
	c.ops = append(c.ops, o)
	from, to := o.ends()
	from.parked.Add(1)
	to.parked.Add(1)
	f.touch(to)
}

// ends returns the sender and the receiver of the message o offers or asks
// for: the cell o parks in is the one for from in to's inbox.
func (o *op) ends() (from, to *endpoint) {
	if o.dir == DirSend {
		return o.owner, o.peer
	}
	return o.peer, o.owner
}

// slotOps is how many ops a slot holds inline: the four guarded branches of
// the paper's lock manager (Figure 5) and anything narrower, which is every
// alternative the in-process workloads post. Wider ones spill to the heap.
const slotOps = 4

// slot is the storage of one operation's stay in the fabric, whichever lane
// it takes: the group, its result channel, and the ops of a point operation
// or a small alternative, in one pooled allocation. The fast lane parks
// ops[0]; the slow lane posts one op per live branch, and g.ops indexes them
// through posted without allocating.
//
// The lifetime rule is the same in both lanes: the owner releases the slot
// when it has its result, or has withdrawn by winning the group's claim. By
// then nothing in the fabric references the slot and its channel is empty —
// exactly one result is ever sent to a claimed group, and every sender
// claims, removes the group's ops from the cells and indexes, and copies
// what it needs out of them before it sends; nothing reads a group or its
// ops after delivering to it. A withdrawal run for the owner by the fabric's
// watch reads the slot too: await returns only once it has let go.
//
// A posted op's slot is released by whoever delivers its outcome, before the
// completer runs. A Scatter offer's slot is owned (own is set): the table's
// reap releases it, once every offer is in. parked says ops[0] went into a
// cell (park sets it) and was not taken back out by its poster: withdraw
// looks for it there first.
type slot struct {
	g           group
	n           int // ops handed out of the inline array
	ops         [slotOps]op
	posted      [slotOps]*op // backing array of g.ops
	own, parked bool
	// entry withdraws a blocking call's op from f if its context ends (see
	// await); g.res holds its word beside the outcome.
	entry ctxwatch.Entry
	f     *Fabric
}

var slotPool = sync.Pool{New: func() any {
	s := &slot{}
	s.g.res = make(chan result, 2)
	s.g.slot = s
	s.entry.Func = s.fire
	return s
}}

// getSlot returns a slot with an unclaimed, unposted group and no ops.
func getSlot() *slot {
	s := slotPool.Get().(*slot)
	s.g.state.Store(0)
	s.g.ops = s.posted[:0]
	s.g.armed = nil
	s.g.done = nil
	s.n = 0
	s.own, s.parked = false, false
	return s
}

// takeSlot returns a pooled slot for an op new to the fabric, whose outcome
// goes to c (nil: a goroutine waits for it), own saying who releases it (see
// slot).
func takeSlot(c Completer, own bool) *slot {
	s := getSlot()
	s.g.done, s.own = c, own
	return s
}

// newOp returns the slot's next op, initialised for branch br of owner's
// alternative, peer being the endpoint br names (nil if none); its seq is the
// caller's to assign.
func (s *slot) newOp(owner, peer *endpoint, br *IDBranch, index int) *op {
	var o *op
	if s.n < slotOps {
		o = &s.ops[s.n]
		s.n++
	} else {
		o = new(op)
	}
	*o = op{g: &s.g, owner: owner, peer: peer, dir: br.Dir, tag: br.Tag, anyTag: br.AnyTag, val: br.Val, index: index}
	return o
}

// release returns s to the pool, dropping value references.
func (s *slot) release() {
	clear(s.ops[:s.n])
	clear(s.posted[:])
	slotPool.Put(s)
}

// unpark removes o from its cell if it is still parked there, preserving
// FIFO order of the remainder. It reports whether o was removed — if not,
// some claimer or drain got there first and now owns o's fate.
func (f *Fabric) unpark(o *op) bool {
	_, to := o.ends()
	to.mu.Lock()
	defer to.mu.Unlock()
	return to.unparkLocked(o)
}

// unparkLocked is unpark for a caller that holds the mutex of e, o's
// receiver.
func (e *endpoint) unparkLocked(o *op) bool {
	from, _ := o.ends()
	if c := e.find(from.id, o.tag); c != nil { // else emptied, and retagged since
		if i := slices.Index(c.ops, o); i >= 0 {
			c.ops = slices.Delete(c.ops, i, i+1)
			from.parked.Add(-1)
			e.parked.Add(-1)
			return true
		}
	}
	return false
}

// --- slow-lane visibility into the cells -----------------------------------
//
// Every function below runs with f.mu held (lock order is always f.mu, then
// one inbox mutex at a time), and moves, fails or reads parked ops so the
// locked matcher's view is complete.

// parkedLocked calls visit for every op parked in to's inbox for the messages
// of from (nil: of anyone) under tag (anyTag: under any). With take set the op
// leaves its cell, uncounted and unclaimed, and is visit's to dispose of: post
// it in the slow lane, or claim its group and deliver a failure, after which
// the op is not looked at again.
func (f *Fabric) parkedLocked(to, from *endpoint, tag Tag, anyTag, take bool, visit func(*op)) {
	if to.parked.Load() == 0 {
		return
	}
	to.mu.Lock()
	for i := range to.cells {
		c := &to.cells[i]
		if (from != nil && c.from != from.id) || (!anyTag && c.tag != tag) {
			continue
		}
		for _, o := range c.ops {
			if take {
				sender, _ := o.ends()
				sender.parked.Add(-1)
				to.parked.Add(-1)
			}
			visit(o)
		}
		if take {
			clear(c.ops)
			c.ops = c.ops[:0]
		}
	}
	to.mu.Unlock()
}

// inboxLocked is parkedLocked for all of to's inbox.
func (f *Fabric) inboxLocked(to *endpoint, take bool, visit func(*op)) {
	f.parkedLocked(to, nil, "", true, take, visit)
}

// involvingLocked calls parkedLocked for the cells that name e at either
// end: all of its inbox, and its cells in the inboxes of its peers.
func (f *Fabric) involvingLocked(e *endpoint, take bool, visit func(*op)) {
	if e.parked.Load() == 0 {
		return
	}
	f.inboxLocked(e, take, visit)
	eps := f.table()
	for _, p := range e.peers {
		f.parkedLocked(eps[p], e, "", true, take, visit)
	}
}

// drainForLocked pulls every parked op that branch br of me's alternative
// could match into the slow-lane indexes, preserving each op's original seq
// so FIFO order is unaffected by which lane an op first took. peer is the
// endpoint br names, nil if none.
func (f *Fabric) drainForLocked(me, peer *endpoint, br *IDBranch) {
	switch {
	case br.AnyPeer:
		f.parkedLocked(me, nil, br.Tag, br.AnyTag, true, f.postLocked)
	case peer == nil:
	case br.Dir == DirSend:
		// Our send meets receives parked by peer for me's messages.
		f.parkedLocked(peer, me, br.Tag, false, true, f.postLocked)
	default:
		f.parkedLocked(me, peer, br.Tag, br.AnyTag, true, f.postLocked)
	}
}

// failParkedInvolvingLocked fails every parked op that e owns or that
// targets e, as Terminate requires: ops owned by e fail with
// ErrSelfTerminated, ops whose (single) branch targets e with
// ErrPeerTerminated.
func (f *Fabric) failParkedInvolvingLocked(e *endpoint) {
	f.involvingLocked(e, true, func(o *op) {
		if o.owner == e {
			f.failGroupLocked(o.g, ErrSelfTerminated)
		} else {
			f.failGroupLocked(o.g, ErrPeerTerminated)
		}
	})
}

// parkedByLocked reports whether e owns a parked op: a receive in its own
// inbox, or a send in one of its cells elsewhere.
func (f *Fabric) parkedByLocked(e *endpoint) bool {
	owns := false
	f.involvingLocked(e, false, func(o *op) { owns = owns || (o.owner == e && !o.g.claimed()) })
	return owns
}
