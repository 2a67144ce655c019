package core

import (
	"slices"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/rendezvous"
	"github.com/scriptabs/goscript/internal/trace"
)

// Completer is told the outcome of a role's posted communication, once, as
// Select reports it: Val for a receive, Peer and Tag for a RecvAny and a
// Select, Index for a Select. It runs on the goroutine that committed or
// failed the op — the poster's own, when the op resolved on its way in — with
// no lock of the runtime held, and must not block.
type Completer interface {
	Complete(sel Selected, err error)
}

// postKind is which communication a Post records.
type postKind uint8

const (
	postSend postKind = iota + 1
	postSendAll
	postRecv
	postRecvAny
	postSelect
)

// Post is the record of one communication of a role: what its outcome needs
// — the kind, the peer, a Select's branch map — and, when the op is posted
// rather than waited for, its completer. It lives in the caller's storage:
// the blocking SendAll, RecvAny and Select keep it on their stack, and a
// poster (the remote host, one per stream) from the posting call until the
// completer has been told, after which it may post the record's next op. The
// posting forms — PostSendTag, PostRecvTag, PostRecvAny, PostSelect,
// PostSendAll — take the same prechecks as the blocking calls, and their
// outcome is mapped and traced the same way; a posted op whose precheck fails
// is completed before the call returns. (The blocking SendTag and RecvTag,
// the in-process hot path, call the same precheck, mapping and trace helpers
// without a record.)
type Post struct {
	rc   *RoleCtx
	kind postKind
	// peer is the role a Send or a Recv names, slot its slot, and tag the
	// message tag.
	peer ids.RoleRef
	slot int
	tag  string
	// tos are a SendAll's targets and branches a Select's — the caller's
	// storage, read until the outcome is in — and orig the position in
	// branches of each alternative handed to the fabric: four inline, more in
	// more.
	tos      []ids.RoleRef
	branches []SelectBranch
	orig     [4]int
	more     []int
	done     Completer
}

// sendAll prechecks a SendAll to tos, under one acquisition of the instance
// lock, and returns the targets' endpoints (none for no target).
func (p *Post) sendAll(tos []ids.RoleRef) ([]rendezvous.ID, error) {
	p.kind, p.tos = postSendAll, tos
	if len(tos) == 0 {
		return nil, nil
	}
	rc := p.rc
	targets := make([]rendezvous.ID, len(tos))
	rc.inst.mu.Lock()
	defer rc.inst.mu.Unlock()
	for i, to := range tos {
		slot, known := rc.resolve(to)
		if st := rc.availabilityLocked(slot, to, known); st != peerOK {
			return nil, precheckErr(st, to)
		}
		targets[i] = rc.st.perf.endpointLocked(slot, to)
	}
	return targets, nil
}

// selectOn classifies a Select's branches under one acquisition of the
// instance lock, appends the alternative to hand the fabric to fab, and maps
// each of its branches back to the call's.
func (p *Post) selectOn(branches []SelectBranch, fab []rendezvous.IDBranch) ([]rendezvous.IDBranch, error) {
	rc := p.rc
	p.kind, p.branches = postSelect, branches
	guardsTrue, sawFinished, sawAbsent := 0, false, false
	rc.inst.mu.Lock()
	for i, b := range branches {
		if !b.guard {
			continue
		}
		guardsTrue++
		var peer rendezvous.ID
		if !b.anyPeer {
			slot, known := rc.resolve(b.peer)
			switch rc.availabilityLocked(slot, b.peer, known) {
			case peerAbsent:
				sawAbsent = true
				continue
			case peerFinished:
				sawFinished = true
				continue
			case peerUnknown:
				rc.inst.mu.Unlock()
				return nil, precheckErr(peerUnknown, b.peer)
			}
			peer = rc.st.perf.endpointLocked(slot, b.peer)
		}
		dir := rendezvous.DirRecv
		if b.send {
			dir = rendezvous.DirSend
		}
		if k := len(fab); k < len(p.orig) {
			p.orig[k] = i
		} else {
			p.more = append(p.more, i)
		}
		fab = append(fab, rendezvous.IDBranch{
			Dir: dir, Peer: peer, AnyPeer: b.anyPeer,
			Tag: rendezvous.Tag(b.tag), Val: b.val,
		})
	}
	rc.inst.mu.Unlock()
	switch {
	case guardsTrue == 0:
		return nil, ErrNoBranches
	case len(fab) == 0 && sawFinished && !sawAbsent:
		return nil, ErrRoleFinished
	case len(fab) == 0:
		return nil, ErrRoleAbsent
	}
	return fab, nil
}

// outcome maps the fabric's outcome of the recorded op to the role's: the
// error a script sees, or the communication recorded in the trace and its
// result.
func (p *Post) outcome(out rendezvous.IDOutcome, err error) (Selected, error) {
	rc := p.rc
	if err != nil {
		if p.kind != postSend && p.kind != postRecv {
			return Selected{}, rc.mapCommErr(ids.RoleRef{}, -1, err)
		}
		return Selected{}, rc.mapCommErr(p.peer, p.slot, err)
	}
	switch p.kind {
	case postSend:
		rc.record(trace.KindSend, p.peer, p.tag)
	case postRecv:
		rc.record(trace.KindRecv, p.peer, p.tag)
		return Selected{Peer: p.peer, Tag: p.tag, Val: out.Val}, nil
	case postSendAll:
		for _, to := range p.tos {
			rc.record(trace.KindSend, to, "")
		}
	case postRecvAny:
		from := rc.roleAt(out.Peer)
		rc.record(trace.KindRecv, from, string(out.Tag))
		return Selected{Peer: from, Tag: string(out.Tag), Val: out.Val}, nil
	case postSelect:
		i := out.Index
		if i < len(p.orig) {
			i = p.orig[i]
		} else {
			i = p.more[i-len(p.orig)]
		}
		b := p.branches[i]
		peer := b.peer // a directed branch commits with the role it names
		if b.anyPeer {
			peer = rc.roleAt(out.Peer)
		}
		kind := trace.KindRecv
		if b.send {
			kind = trace.KindSend
		}
		rc.record(kind, peer, string(out.Tag))
		return Selected{Index: i, Peer: peer, Tag: string(out.Tag), Val: out.Val}, nil
	}
	return Selected{}, nil
}

// Complete is the fabric telling the posted op its outcome
// (rendezvous.Completer): mapped and traced, it goes to the op's completer.
// The role's count of owed ops drops once the completer has been told; the
// record is read first, for a poster may post its next op into p at once.
func (p *Post) Complete(out rendezvous.IDOutcome, err error) {
	st := p.rc.st
	sel, err := p.outcome(out, err)
	p.done.Complete(sel, err)
	st.posted.Add(-1)
}

// PostSendTag is SendTag posted: the transfer is placed in the fabric and
// the call returns; done is told its outcome. p is the op's record (see Post).
func (rc *RoleCtx) PostSendTag(p *Post, to ids.RoleRef, tag string, v any, done Completer) {
	slot, id, err := rc.peer(to)
	*p = Post{rc: rc, kind: postSend, peer: to, slot: slot, tag: tag, done: done}
	p.postDo([]rendezvous.IDBranch{{Dir: rendezvous.DirSend, Peer: id, Tag: rendezvous.Tag(tag), Val: v}}, err)
}

// PostRecvTag is RecvTag posted (see PostSendTag).
func (rc *RoleCtx) PostRecvTag(p *Post, from ids.RoleRef, tag string, done Completer) {
	slot, id, err := rc.peer(from)
	*p = Post{rc: rc, kind: postRecv, peer: from, slot: slot, tag: tag, done: done}
	p.postDo([]rendezvous.IDBranch{{Dir: rendezvous.DirRecv, Peer: id, Tag: rendezvous.Tag(tag)}}, err)
}

// PostRecvAny is RecvAny posted (see PostSendTag).
func (rc *RoleCtx) PostRecvAny(p *Post, done Completer) {
	*p = Post{rc: rc, kind: postRecvAny, done: done}
	p.postDo(anyMessage, nil)
}

// PostSelect is Select posted (see PostSendTag). The record reads branches
// until the outcome is in.
func (rc *RoleCtx) PostSelect(p *Post, done Completer, branches ...SelectBranch) {
	var fabBuf [4]rendezvous.IDBranch
	*p = Post{rc: rc, done: done}
	fab, err := p.selectOn(branches, fabBuf[:0])
	p.postDo(fab, err)
}

// PostSendAll is SendAll posted (see PostSendTag): done is told once every
// offer has an outcome. The record reads tos until then.
func (rc *RoleCtx) PostSendAll(p *Post, tos []ids.RoleRef, v any, done Completer) {
	*p = Post{rc: rc, done: done}
	targets, err := p.sendAll(tos)
	if err != nil || len(tos) == 0 {
		done.Complete(Selected{}, err)
		return
	}
	fab := rc.st.perf.fabric
	rc.st.posted.Add(1)
	if rc.inst.faults == nil {
		fab.PostScatterID(rc.id, "", targets, []any{v}, p)
		return
	}
	p.inject(func() { fab.PostScatterID(rc.id, "", targets, []any{v}, p) })
}

// postDo posts the alternative br of a prechecked op, or completes the op
// with the precheck's error.
func (p *Post) postDo(br []rendezvous.IDBranch, err error) {
	if err != nil {
		p.done.Complete(Selected{}, err)
		return
	}
	rc := p.rc
	fab := rc.st.perf.fabric
	rc.st.posted.Add(1)
	if rc.inst.faults == nil {
		fab.PostDoID(rc.id, br, p)
		return
	}
	kept := slices.Clone(br)
	p.inject(func() { fab.PostDoID(rc.id, kept, p) })
}

// inject is opContext for a posted op, which nobody waits for and which
// has no context: the injected latency delays the post on a timer instead of
// its poster.
func (p *Post) inject(post func()) {
	if d := p.rc.inst.faults.OpDelay(); d > 0 {
		time.AfterFunc(d, post)
		return
	}
	post()
}
