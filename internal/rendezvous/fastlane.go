package rendezvous

import (
	"context"
	"sync"
	"time"
)

// This file is the fabric's fast lane: a directed, single-branch Send or
// Recv with a concrete (peer, tag) commits through a per-endpoint-pair
// exchange cell in a sharded map, touching one shard mutex instead of the
// fabric lock. See the package comment for the escalation protocol that
// keeps it linearizable with the slow lane, and DESIGN.md "Fabric
// internals" for the full argument.

// cellKey names one directed exchange cell: sends from `from` to `to` under
// `tag` meet receives by `to` from `from` under `tag` in the same cell.
type cellKey struct {
	from, to Addr
	tag      Tag
}

// shard is one slice of the exchange-cell map. A cell holds parked ops in
// ascending seq order; all ops in one cell share a direction (two opposite
// directions would have committed on arrival). An emptied cell keeps its map
// entry, and with it its backing array, for as long as the scope lasts; Reset
// then drops every key and keeps only the map's buckets, because the script
// runtime pools one fabric per performance across every definition, and a
// key that outlived its scope would make the next, unrelated cast walk and
// rehash addresses it never uses. So each scope inserts the keys it parks
// under once. fastCommits is kept per shard to avoid a shared counter
// cacheline.
type shard struct {
	mu          sync.Mutex
	cells       map[cellKey][]*op
	fastCommits uint64
}

// FastFaults injects chaos faults into fast-lane handoffs: a latency before
// an op's post-park escalation check (widening the race windows the Dekker
// handshake must cover) and a spurious eviction that forces the op to retry
// through the slow lane. Both perturb timing and routing only — a fault can
// reroute or delay an op but never change what it is allowed to match.
// Implementations must be safe for concurrent use.
type FastFaults interface {
	// FastDelay returns a latency to impose after parking (0 = none).
	FastDelay() time.Duration
	// FastEvict reports whether the parked op should be spuriously evicted
	// from its cell and re-posted through the slow lane.
	FastEvict() bool
}

// SetFastFaults attaches a fast-lane fault injector (nil disables). It must
// be called while the fabric is quiescent — before the communication scope's
// parties start operating — and is cleared by Reset.
func (f *Fabric) SetFastFaults(ff FastFaults) { f.faults = ff }

// fnv1a hashes s (FNV-1a, 32-bit).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func hotIndex(a Addr) int { return int(fnv1a(string(a)) & (numHot - 1)) }

func (f *Fabric) shardOf(k cellKey) *shard {
	return &f.shards[shardIndex(fnv1a(string(k.from)), fnv1a(string(k.to)))]
}

// shardIndex is the shard of the cells exchanged between two addresses,
// given their hashes.
func shardIndex(hFrom, hTo uint32) int { return int((hFrom*31 + hTo) & (numShards - 1)) }

// touch records, with shard i's mutex held, that an op parked there, so the
// next Reset clears its cells. The load keeps all but a scope's first park in
// a shard off the shared word.
func (f *Fabric) touch(i int) {
	bit := uint64(1) << i
	for {
		old := f.touched.Load()
		if old&bit != 0 || f.touched.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// hotAddr reports whether a's slot is hot: some slow-lane activity or a
// termination involves an address hashing to the same slot, so fast-lane
// ops involving a must escalate. False positives (hash collisions) only
// cost a slow-lane trip.
func (f *Fabric) hotAddr(a Addr) bool { return f.hot[hotIndex(a)].Load() != 0 }

// mixIndex is a second, independent slot index for the same address hash
// (Knuth multiplicative mix), giving the parked-op filter two probes per
// address so a single-slot collision cannot force a spurious shard sweep.
func mixIndex(h uint32) uint32 { return (h * 2654435761) >> 16 & (numHot - 1) }

// parkAccount adjusts the parked-op counters for one op entering (delta=1)
// or leaving (delta=-1) cell k: the global count plus two slots per
// endpoint (a tiny counting Bloom filter), which let the termination probes
// skip shard sweeps for addresses with nothing parked.
func (f *Fabric) parkAccount(k cellKey, delta int64) {
	f.parked.Add(delta)
	hf, ht := fnv1a(string(k.from)), fnv1a(string(k.to))
	f.parkedAt[hf&(numHot-1)].Add(delta)
	f.parkedAt[mixIndex(hf)].Add(delta)
	f.parkedAt[ht&(numHot-1)].Add(delta)
	f.parkedAt[mixIndex(ht)].Add(delta)
}

// addrParked reports whether some parked op might involve addr; when false
// the termination probes skip their shard sweeps. Point ops raise both
// counters before the parking shard unlock, but Scatter batches its owner's
// adds after its target loop, so an address sharing a slot with a scatterer
// in flight can read a transient zero: a sweep-skipping hint for the probes
// that always had it, not a guard the matcher may use (drainForLocked goes
// by the global count).
func (f *Fabric) addrParked(a Addr) bool {
	h := fnv1a(string(a))
	return f.parkedAt[h&(numHot-1)].Load() != 0 && f.parkedAt[mixIndex(h)].Load() != 0
}

// fastPoint tries to run a single directed branch through the fast lane.
// handled=false means the caller must use the slow lane (the op is not
// eligible, or escalation struck before parking); handled=true means the
// outcome (or error) is final.
func (f *Fabric) fastPoint(ctx context.Context, owner Addr, br Branch) (out Outcome, handled bool, err error) {
	if !f.fastOK.Load() {
		return Outcome{}, false, nil
	}
	if br.AnyPeer || br.AnyTag || br.Peer == "" || br.Peer == owner ||
		(br.Dir != DirSend && br.Dir != DirRecv) {
		return Outcome{}, false, nil // wildcards, self-sends and invalid branches: slow lane
	}
	hOwner, hPeer := fnv1a(string(owner)), fnv1a(string(br.Peer))
	if f.hot[hOwner&(numHot-1)].Load() != 0 || f.hot[hPeer&(numHot-1)].Load() != 0 {
		return Outcome{}, false, nil
	}

	var k cellKey
	var hFrom, hTo uint32
	if br.Dir == DirSend {
		k = cellKey{from: owner, to: br.Peer, tag: br.Tag}
		hFrom, hTo = hOwner, hPeer
	} else {
		k = cellKey{from: br.Peer, to: owner, tag: br.Tag}
		hFrom, hTo = hPeer, hOwner
	}
	shIdx := shardIndex(hFrom, hTo)
	sh := &f.shards[shIdx]

	sh.mu.Lock()
	if list := sh.cells[k]; len(list) > 0 && list[0].branch.Dir != br.Dir {
		// A counterpart is parked: commit with the FIFO head. Cell residency
		// implies the head's group is unclaimed (claimers remove the op from
		// the cell in the same critical section), so the claim succeeds. The
		// arriving side needs no group of its own — its outcome is computed
		// in place.
		p := list[0]
		// Shift rather than reslice so the cell keeps its capacity — the
		// next park appends into the same backing array instead of
		// allocating a fresh one.
		copy(list, list[1:])
		list[len(list)-1] = nil
		sh.cells[k] = list[:len(list)-1]
		f.parked.Add(-1)
		f.parkedAt[hFrom&(numHot-1)].Add(-1)
		f.parkedAt[mixIndex(hFrom)].Add(-1)
		f.parkedAt[hTo&(numHot-1)].Add(-1)
		f.parkedAt[mixIndex(hTo)].Add(-1)
		p.g.claim()
		sh.fastCommits++
		sh.mu.Unlock()
		// Copy p's fields before sending its result — the counterpart may
		// release its pooled slot the moment the result lands.
		pg, pOwner, pVal := p.g, p.owner, p.branch.Val
		if br.Dir == DirSend {
			pg.res <- result{out: Outcome{Index: p.index, Peer: owner, Tag: br.Tag, Val: br.Val}}
			return Outcome{Peer: pOwner, Tag: br.Tag}, true, nil
		}
		pg.res <- result{out: Outcome{Index: p.index, Peer: owner, Tag: br.Tag}}
		return Outcome{Peer: pOwner, Tag: br.Tag, Val: pVal}, true, nil
	}
	// Park. The group and op share one pooled allocation; the seq is drawn
	// inside the critical section so each cell stays sorted by post order.
	s := getSlot()
	g, o := &s.g, s.newOp(owner, br, 0)
	o.seq = f.seq.Add(1)
	sh.cells[k] = append(sh.cells[k], o)
	f.parked.Add(1)
	f.parkedAt[hFrom&(numHot-1)].Add(1)
	f.parkedAt[mixIndex(hFrom)].Add(1)
	f.parkedAt[hTo&(numHot-1)].Add(1)
	f.parkedAt[mixIndex(hTo)].Add(1)
	f.touch(shIdx)
	sh.mu.Unlock()

	if ff := f.faults; ff != nil {
		if d := ff.FastDelay(); d > 0 {
			time.Sleep(d)
		}
		if ff.FastEvict() && f.unpark(sh, k, o) {
			out, err := f.awaitSlow(ctx, owner, []Branch{br}, s, o.seq)
			s.release()
			return out, true, err
		}
	}

	// Dekker re-check: the park (a store under the shard mutex) happened
	// before these loads, and every slow-lane pass stores its hot marks
	// before loading the cells, so if a racing slow-lane op missed our park
	// we observe its mark here — and escalate to meet it in the slow lane.
	if !f.fastOK.Load() || f.hot[hOwner&(numHot-1)].Load() != 0 || f.hot[hPeer&(numHot-1)].Load() != 0 {
		if f.unpark(sh, k, o) {
			out, err := f.awaitSlow(ctx, owner, []Branch{br}, s, o.seq)
			s.release()
			return out, true, err
		}
		// Already claimed (an outcome or error is in flight) or drained into
		// the slow lane: wait below.
	}

	select {
	case r := <-g.res:
		s.release()
		return r.out, true, r.err
	case <-ctx.Done():
		// Withdraw: from the cell if still parked, else from the slow lane
		// if drained there, else an outcome already won the race.
		if f.unpark(sh, k, o) {
			s.release()
			return Outcome{}, true, ctx.Err()
		}
		f.mu.Lock()
		if g.claim() {
			f.removeGroupLocked(g)
			f.mu.Unlock()
			s.release()
			return Outcome{}, true, ctx.Err()
		}
		f.mu.Unlock()
		r := <-g.res
		s.release()
		return r.out, true, r.err
	}
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
// ops after delivering to it.
type slot struct {
	g      group
	n      int // ops handed out of the inline array
	ops    [slotOps]op
	posted [slotOps]*op // backing array of g.ops
}

var slotPool = sync.Pool{New: func() any {
	s := &slot{}
	s.g.res = make(chan result, 1)
	return s
}}

// getSlot returns a slot with an unclaimed, unposted group and no ops.
func getSlot() *slot {
	s := slotPool.Get().(*slot)
	s.g.state.Store(0)
	s.g.ops = s.posted[:0]
	s.g.hotIdx = -1
	s.n = 0
	return s
}

// newOp returns the slot's next op, initialised for one branch of owner's
// alternative; its seq is the caller's to assign.
func (s *slot) newOp(owner Addr, br Branch, index int) *op {
	var o *op
	if s.n < slotOps {
		o = &s.ops[s.n]
		s.n++
	} else {
		o = new(op)
	}
	*o = op{g: &s.g, owner: owner, branch: br, index: index}
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
func (f *Fabric) unpark(sh *shard, k cellKey, o *op) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	list := sh.cells[k]
	for i, p := range list {
		if p != o {
			continue
		}
		copy(list[i:], list[i+1:])
		list[len(list)-1] = nil
		sh.cells[k] = list[:len(list)-1]
		f.parkAccount(k, -1)
		return true
	}
	return false
}

// --- slow-lane visibility into the cells -----------------------------------
//
// Every function below runs with f.mu held (lock order is always f.mu, then
// one shard mutex at a time), and moves or fails parked ops so the locked
// matcher's view is complete.

// drainForLocked pulls every parked op the given branches could match into
// the slow-lane indexes, preserving each op's original seq so FIFO order is
// unaffected by which lane an op first took.
func (f *Fabric) drainForLocked(owner Addr, branches []Branch) {
	if f.parked.Load() == 0 {
		return
	}
	for _, br := range branches {
		switch {
		case br.Dir == DirSend:
			// Our send meets receives parked by br.Peer for owner's messages.
			f.drainCellLocked(cellKey{from: owner, to: br.Peer, tag: br.Tag})
		case br.AnyPeer:
			f.drainAllToLocked(owner)
		case br.AnyTag:
			f.drainPairLocked(br.Peer, owner)
		default:
			f.drainCellLocked(cellKey{from: br.Peer, to: owner, tag: br.Tag})
		}
	}
}

// drainCellLocked moves one cell's parked ops into the slow-lane indexes.
func (f *Fabric) drainCellLocked(k cellKey) {
	sh := f.shardOf(k)
	sh.mu.Lock()
	list := sh.cells[k]
	delete(sh.cells, k)
	for _, o := range list {
		f.parkAccount(k, -1)
		f.postLocked(o)
	}
	sh.mu.Unlock()
}

// drainPairLocked moves every parked op exchanged between from and to
// (any tag) into the slow-lane indexes.
func (f *Fabric) drainPairLocked(from, to Addr) {
	sh := f.shardOf(cellKey{from: from, to: to})
	sh.mu.Lock()
	for k, list := range sh.cells {
		if k.from != from || k.to != to {
			continue
		}
		delete(sh.cells, k)
		for _, o := range list {
			f.parkAccount(k, -1)
			f.postLocked(o)
		}
	}
	sh.mu.Unlock()
}

// drainAllToLocked moves every parked op whose cell targets `to` into the
// slow-lane indexes (used by AnyPeer receives, whose candidates may sit in
// any shard).
func (f *Fabric) drainAllToLocked(to Addr) {
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for k, list := range sh.cells {
			if k.to != to {
				continue
			}
			delete(sh.cells, k)
			for _, o := range list {
				f.parkAccount(k, -1)
				f.postLocked(o)
			}
		}
		sh.mu.Unlock()
	}
}

// failParkedInvolvingLocked fails every parked op that owns or targets addr,
// as Terminate requires: ops owned by addr fail with ErrSelfTerminated, ops
// whose (single) branch targets addr fail with ErrPeerTerminated. Every op
// in a cell whose key names addr involves addr one way or the other.
func (f *Fabric) failParkedInvolvingLocked(addr Addr) {
	// Skip the sweep when nothing involving addr is parked — per-slot count,
	// so an unrelated scatter in flight does not force 64 shard visits for
	// every role that finishes.
	if f.parked.Load() == 0 || !f.addrParked(addr) {
		return
	}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for k, list := range sh.cells {
			if k.from != addr && k.to != addr {
				continue
			}
			delete(sh.cells, k)
			for _, o := range list {
				f.parkAccount(k, -1)
				if !o.g.claim() {
					continue
				}
				if o.owner == addr {
					o.g.res <- result{err: ErrSelfTerminated}
				} else {
					o.g.res <- result{err: ErrPeerTerminated}
				}
			}
		}
		sh.mu.Unlock()
	}
}

// failAllParkedLocked fails every parked op with err and empties the cells
// (Close and Abort).
func (f *Fabric) failAllParkedLocked(err error) {
	if f.parked.Load() == 0 {
		return
	}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for k, list := range sh.cells {
			delete(sh.cells, k)
			for _, o := range list {
				f.parkAccount(k, -1)
				if o.g.claim() {
					o.g.res <- result{err: err}
				}
			}
		}
		sh.mu.Unlock()
	}
}

// parkedBy reports whether addr owns a parked op. Called with f.mu held.
func (f *Fabric) parkedBy(addr Addr) bool {
	if f.parked.Load() == 0 || !f.addrParked(addr) {
		return false
	}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for k, list := range sh.cells {
			if k.from != addr && k.to != addr {
				continue
			}
			for _, o := range list {
				if o.owner == addr && !o.g.claimed() {
					sh.mu.Unlock()
					return true
				}
			}
		}
		sh.mu.Unlock()
	}
	return false
}
